package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/stream"
	"github.com/streamsum/swat/internal/wavelet"
)

// FuzzDecodeSummaryEquivalence holds DecodeSummary to the reference
// decoder below, kept verbatim from before the rewrite: on every input
// both must make the same accept or reject decision with the same error
// text, return reflect.DeepEqual summaries, and rebuild trees that
// re-encode to identical bytes. Each input is tried both as a whole
// frame and as a body wrapped in a valid frame, so mutations reach the
// body checks past the CRC. Seeds: every truncation of warm frames at
// three geometries, a tainted summary, and the hostile headers of
// TestDecodeSummaryRejectsHostileHeaders. Run via `make fuzz-smoke`.
func FuzzDecodeSummaryEquivalence(f *testing.F) {
	for _, opts := range []Options{
		{WindowSize: 32, Coefficients: 4, MinLevel: 2},
		{WindowSize: 1024},
		{WindowSize: 4096, Coefficients: 4},
	} {
		frame := feedTree(f, opts, stream.Uniform(9), 3*opts.WindowSize).AppendSummary(nil)
		for cut := 0; cut <= len(frame); cut++ {
			f.Add(frame[:cut])
		}
		body, _, err := codec.Next(frame, len(frame))
		if err != nil {
			f.Fatal(err)
		}
		for cut := 0; cut < len(body); cut++ {
			f.Add(hostileBody(body[:cut]))
		}
	}
	warm := feedTree(f, Options{WindowSize: 64, Coefficients: 2}, stream.Uniform(3), 150).Export()
	tainted, err := AdvanceSummary(warm, warm.Arrivals+20, mergeRange)
	if err != nil || len(tainted.Taint) == 0 {
		f.Fatalf("no tainted summary: %v", err)
	}
	tt, err := FromSummary(tainted)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tt.AppendSummary(nil))
	// Cold trees, whose invalid nodes land where the reused summaries
	// below hold valid ones.
	for _, c := range []struct {
		opts  Options
		count int
	}{
		{Options{WindowSize: 64, Coefficients: 2}, 10},
		{Options{WindowSize: 64, Coefficients: 2}, 70},
		{Options{WindowSize: 16, Coefficients: 2, MinLevel: 2}, 5},
	} {
		f.Add(feedTree(f, c.opts, stream.Uniform(8), c.count).AppendSummary(nil))
	}
	for _, body := range hostileSummaryHeaders() {
		f.Add(hostileBody(body))
	}
	// A one-arrival N=4 tree's first node is invalid: give it a birth.
	frame := feedTree(f, Options{WindowSize: 4}, stream.Uniform(1), 1).AppendSummary(nil)
	body, _, err := codec.Next(frame, len(frame))
	if err != nil {
		f.Fatal(err)
	}
	body = append([]byte(nil), body...)
	binary.BigEndian.PutUint64(body[summaryHeaderLen+8+1:], 7)
	f.Add(hostileBody(body))
	// DecodeSummaryInto must give the same result into a summary that
	// already holds another shape: a larger, tainted one and a smaller
	// one with a raised MinLevel.
	priors := [][]byte{
		tt.AppendSummary(nil),
		feedTree(f, Options{WindowSize: 4096, Coefficients: 4}, stream.Uniform(5), 4096+77).AppendSummary(nil),
		feedTree(f, Options{WindowSize: 16, Coefficients: 2, MinLevel: 2}, stream.Uniform(6), 40).AppendSummary(nil),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameDecode(t, data, priors)
		requireSameDecode(t, hostileBody(data), priors)
	})
}

// hostileSummaryHeaders are the bodies TestDecodeSummaryRejectsHostileHeaders
// feeds the decoder: bad magic and version, a decompression-bomb window
// and ring, a non-power-of-two window, and zero streams with arrivals.
func hostileSummaryHeaders() [][]byte {
	header := func(n uint32, minLevel byte, k, streams uint32, arrivals, nodeUpd uint64, ringLen uint32) []byte {
		b := append([]byte(summaryMagic), summaryVersion)
		b = binary.BigEndian.AppendUint32(b, n)
		b = append(b, minLevel)
		b = binary.BigEndian.AppendUint32(b, k)
		b = binary.BigEndian.AppendUint32(b, streams)
		b = binary.BigEndian.AppendUint64(b, arrivals)
		b = binary.BigEndian.AppendUint64(b, nodeUpd)
		return binary.BigEndian.AppendUint32(b, ringLen)
	}
	return [][]byte{
		append([]byte("NOPE"), 1),
		append([]byte(summaryMagic), 99),
		header(1<<30, 1, 1<<20, 1, 1<<40, 0, 0),
		header(32, 0, 1, 1, 1<<32, 0, 1<<31),
		header(33, 0, 1, 1, 0, 0, 0),
		header(32, 0, 1, 0, 4, 0, 2),
	}
}

// requireSameDecode holds DecodeSummary, and DecodeSummaryInto into a
// summary first decoded from each of priors, to the reference decoder.
func requireSameDecode(t *testing.T, data []byte, priors [][]byte) {
	t.Helper()
	want, errW := decodeSummaryRef(data)
	got, errG := DecodeSummary(data)
	if (errW == nil) != (errG == nil) || errW != nil && errW.Error() != errG.Error() {
		t.Fatalf("decode error %v, reference %v", errG, errW)
	}
	reused := make([]*Summary, len(priors))
	for i, prior := range priors {
		s := new(Summary)
		if err := DecodeSummaryInto(s, prior); err != nil {
			t.Fatal(err)
		}
		err := DecodeSummaryInto(s, data)
		if (errW == nil) != (err == nil) || errW != nil && errW.Error() != err.Error() {
			t.Fatalf("decode into a used summary: error %v, reference %v", err, errW)
		}
		if s.coeffBuf == nil {
			t.Fatal("DecodeSummaryInto kept no coefficient array for the next decode")
		}
		// The array kept for reuse is not part of the decoded value.
		s.coeffBuf = nil
		reused[i] = s
	}
	if errW != nil {
		return
	}
	if !summariesIdentical(got, want) {
		t.Fatalf("decoded summary differs from the reference:\n got  %+v\n want %+v", got, want)
	}
	tw, errW := FromSummary(want)
	tg, errG := FromSummary(got)
	if errW != nil || errG != nil {
		t.Fatalf("rebuild: %v, reference %v", errG, errW)
	}
	if !bytes.Equal(tg.AppendSummary(nil), tw.AppendSummary(nil)) {
		t.Fatal("rebuilt tree re-encodes differently from the reference's")
	}
	// reflect.DeepEqual finds a NaN unequal to itself; the bits matched
	// above, so zero the NaNs on both sides and let it compare the rest,
	// nil slices included.
	zeroNaNs(got)
	zeroNaNs(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded summary differs from the reference:\n got  %#v\n want %#v", got, want)
	}
	for i, s := range reused {
		zeroNaNs(s)
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("summary decoded over prior %d differs from the reference:\n got  %#v\n want %#v", i, s, want)
		}
	}
}

func zeroNaNs(s *Summary) {
	zero := func(vs []float64) {
		for i, v := range vs {
			if math.IsNaN(v) {
				vs[i] = 0
			}
		}
	}
	zero(s.Ring)
	for _, nd := range s.Nodes {
		zero(nd.Coeffs)
	}
}

// refSumReader is the reference decoder's cursor, with sticky
// truncation error handling.
type refSumReader struct {
	b    []byte
	err  error
	what string
}

func (r *refSumReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("core: summary truncated in %s", r.what)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *refSumReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *refSumReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *refSumReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *refSumReader) f64() float64 { return math.Float64frombits(r.u64()) }

// decodeSummaryRef is DecodeSummary as it stood before the decoder
// stopped formatting node names on the success path and moved every
// node's coefficients into one backing array: a fixed reference for
// the new decoder's decisions, messages and summaries.
func decodeSummaryRef(data []byte) (*Summary, error) {
	body, n, err := codec.Next(data, len(data))
	if err != nil {
		return nil, fmt.Errorf("core: summary frame: %w", err)
	}
	if n != len(data) {
		return nil, fmt.Errorf("core: %d trailing bytes after summary frame", len(data)-n)
	}
	r := &refSumReader{b: body, what: "header"}
	if magic := r.take(len(summaryMagic)); magic == nil || string(magic) != summaryMagic {
		return nil, fmt.Errorf("core: not a SWAT summary")
	}
	if v := r.u8(); r.err == nil && v != summaryVersion {
		return nil, fmt.Errorf("core: unsupported summary version %d", v)
	}
	s := &Summary{
		WindowSize: int(r.u32()),
		MinLevel:   int(r.u8()),
	}
	s.Coefficients = int(r.u32())
	s.Streams = int(r.u32())
	s.Arrivals = int64(r.u64())
	s.NodeUpdates = r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if err := checkGeometry(s.WindowSize, s.Coefficients, s.MinLevel); err != nil {
		return nil, err
	}
	// Footprint guard: a warm tree's summary encodes its full ring and
	// every valid coefficient at 8 bytes per float, so the state a
	// summary describes is never much larger than its encoding. Allow
	// generous slack for cold trees, but refuse headers whose implied
	// allocation dwarfs the bytes backing them.
	levels := wavelet.Log2(s.WindowSize)
	elems := 1 << uint(s.MinLevel+1)
	for l := s.MinLevel; l < levels; l++ {
		roles := 3
		if l == levels-1 {
			roles = 1
		}
		elems += roles * coeffLenFor(l, s.Coefficients)
	}
	if elems > 4096+8*len(body) {
		return nil, fmt.Errorf("core: summary geometry implies %d state values from %d encoded bytes", elems, len(body))
	}
	r.what = "ring"
	ringLen := int(r.u32())
	if r.err == nil && (ringLen < 0 || ringLen > len(r.b)/8) {
		return nil, fmt.Errorf("core: summary ring length %d exceeds remaining input", ringLen)
	}
	if r.err == nil {
		s.Ring = make([]float64, ringLen)
		for i := range s.Ring {
			s.Ring[i] = r.f64()
		}
	}
	s.Nodes = make([]SummaryNode, 0, 3*(levels-s.MinLevel)-2)
	for l := s.MinLevel; l < levels && r.err == nil; l++ {
		roles := 3
		if l == levels-1 {
			roles = 1
		}
		for role := Right; int(role) < roles; role++ {
			r.what = fmt.Sprintf("node %v%d", role, l)
			sn := SummaryNode{Level: l, Role: role}
			valid := r.u8()
			birth := int64(r.u64())
			if r.err == nil && valid > 1 {
				return nil, fmt.Errorf("core: summary node %v%d validity byte %d", role, l, valid)
			}
			if valid == 1 {
				sn.Valid = true
				sn.Birth = birth
				cl := coeffLenFor(l, s.Coefficients)
				if r.err == nil && cl > len(r.b)/8 {
					return nil, fmt.Errorf("core: summary truncated in node %v%d coefficients", role, l)
				}
				sn.Coeffs = make([]float64, cl)
				for i := range sn.Coeffs {
					sn.Coeffs[i] = r.f64()
				}
			} else if r.err == nil && birth != 0 {
				return nil, fmt.Errorf("core: summary node %v%d invalid but has birth %d", role, l, birth)
			}
			s.Nodes = append(s.Nodes, sn)
		}
	}
	r.what = "taint spans"
	taintCount := int(r.u32())
	if r.err == nil && (taintCount < 0 || taintCount > len(r.b)/24) {
		return nil, fmt.Errorf("core: summary taint count %d exceeds remaining input", taintCount)
	}
	if r.err == nil && taintCount > 0 {
		s.Taint = make([]TaintSpan, taintCount)
		for i := range s.Taint {
			s.Taint[i] = TaintSpan{From: int64(r.u64()), To: int64(r.u64()), Half: r.f64()}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in summary body", len(r.b))
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
