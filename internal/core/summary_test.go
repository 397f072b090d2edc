package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"testing"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/stream"
)

// Tests for the level-aligned summary export: Export/FromSummary,
// the codec-framed wire encoding, and the canonical-bytes property that
// handoff and durable recovery rely on (a tree restored from a summary
// encodes — now and after identical further updates — to exactly the
// bytes of the tree it came from).

// summaryGeometries is the geometry table shared by the summary and
// merge tests: full-k, dropped-budget, raised-minLevel, and large
// variants.
func summaryGeometries() []Options {
	return []Options{
		{WindowSize: 64},
		{WindowSize: 64, Coefficients: 4},
		{WindowSize: 32, Coefficients: 2, MinLevel: 2},
		{WindowSize: 128, Coefficients: 8},
		{WindowSize: 256, Coefficients: 4, MinLevel: 3},
	}
}

// feedTree builds a tree over opts and feeds it count values from src.
func feedTree(t testing.TB, opts Options, src stream.Source, count int) *Tree {
	t.Helper()
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		tr.Update(src.Next())
	}
	return tr
}

// summariesIdentical compares two summaries field by field with
// bit-exact float comparison (NaN-safe, unlike ==).
func summariesIdentical(a, b *Summary) bool {
	if a.WindowSize != b.WindowSize || a.MinLevel != b.MinLevel ||
		a.Coefficients != b.Coefficients || a.Streams != b.Streams ||
		a.Arrivals != b.Arrivals || a.NodeUpdates != b.NodeUpdates ||
		len(a.Ring) != len(b.Ring) || len(a.Nodes) != len(b.Nodes) ||
		len(a.Taint) != len(b.Taint) {
		return false
	}
	for i := range a.Ring {
		if math.Float64bits(a.Ring[i]) != math.Float64bits(b.Ring[i]) {
			return false
		}
	}
	for i := range a.Nodes {
		na, nb := &a.Nodes[i], &b.Nodes[i]
		if na.Level != nb.Level || na.Role != nb.Role || na.Valid != nb.Valid ||
			na.Birth != nb.Birth || len(na.Coeffs) != len(nb.Coeffs) {
			return false
		}
		for j := range na.Coeffs {
			if math.Float64bits(na.Coeffs[j]) != math.Float64bits(nb.Coeffs[j]) {
				return false
			}
		}
	}
	for i := range a.Taint {
		if a.Taint[i].From != b.Taint[i].From || a.Taint[i].To != b.Taint[i].To ||
			math.Float64bits(a.Taint[i].Half) != math.Float64bits(b.Taint[i].Half) {
			return false
		}
	}
	return true
}

func TestSummaryExportRoundTrip(t *testing.T) {
	for _, opts := range summaryGeometries() {
		for _, count := range []int{0, 1, opts.WindowSize / 2, 2 * opts.WindowSize} {
			src := stream.Uniform(int64(7*count + opts.WindowSize))
			tr := feedTree(t, opts, src, count)
			s := tr.Export()
			if err := s.Validate(); err != nil {
				t.Fatalf("n=%d count=%d: exported summary invalid: %v", opts.WindowSize, count, err)
			}
			if s.Streams != 1 || s.Arrivals != int64(count) {
				t.Fatalf("n=%d count=%d: streams=%d arrivals=%d", opts.WindowSize, count, s.Streams, s.Arrivals)
			}
			// Export → FromSummary → Export is the identity.
			back, err := FromSummary(s)
			if err != nil {
				t.Fatalf("n=%d count=%d: FromSummary: %v", opts.WindowSize, count, err)
			}
			if !summariesIdentical(s, back.Export()) {
				t.Fatalf("n=%d count=%d: FromSummary round trip changed the summary", opts.WindowSize, count)
			}
			// Export → encode → decode is the identity too.
			frame := tr.AppendSummary(nil)
			dec, err := DecodeSummary(frame)
			if err != nil {
				t.Fatalf("n=%d count=%d: DecodeSummary: %v", opts.WindowSize, count, err)
			}
			if !summariesIdentical(s, dec) {
				t.Fatalf("n=%d count=%d: encode/decode round trip changed the summary", opts.WindowSize, count)
			}
			// And the restored tree re-encodes to exactly the same bytes.
			if !bytes.Equal(frame, back.AppendSummary(nil)) {
				t.Fatalf("n=%d count=%d: restored tree encodes differently", opts.WindowSize, count)
			}
		}
	}
}

// TestSummaryCanonicalUnderUpdates pins the property the netsim
// summary-shipping repair path depends on: a tree restored from a
// summary stays byte-identical to its origin under identical further
// updates.
func TestSummaryCanonicalUnderUpdates(t *testing.T) {
	for _, opts := range summaryGeometries()[:3] {
		src := stream.Uniform(99)
		orig := feedTree(t, opts, src, opts.WindowSize+3)
		restored, err := FromSummary(orig.Export())
		if err != nil {
			t.Fatal(err)
		}
		var a, b []byte
		for i := 0; i < 2*opts.WindowSize; i++ {
			v := src.Next()
			orig.Update(v)
			restored.Update(v)
			a = orig.AppendSummary(a[:0])
			b = restored.AppendSummary(b[:0])
			if !bytes.Equal(a, b) {
				t.Fatalf("n=%d: summaries diverge %d updates after restore", opts.WindowSize, i+1)
			}
		}
	}
}

func TestDecodeSummaryRejectsCorruption(t *testing.T) {
	src := stream.Uniform(5)
	tr := feedTree(t, Options{WindowSize: 32, Coefficients: 2}, src, 80)
	frame := tr.AppendSummary(nil)

	// Every truncation must be rejected.
	for cut := 0; cut < len(frame); cut++ {
		if _, err := DecodeSummary(frame[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", cut, len(frame))
		}
	}
	// Every single-byte corruption must be rejected: the frame CRC
	// catches body flips, the header checks catch the rest.
	for i := 0; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0xFF
		if _, err := DecodeSummary(bad); err == nil {
			t.Fatalf("flipping byte %d accepted", i)
		}
	}
	// Trailing bytes after the frame must be rejected.
	if _, err := DecodeSummary(append(append([]byte(nil), frame...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// hostileBody wraps a hand-built summary body in a valid codec frame,
// so the decoder's structural checks (not the CRC) must reject it.
func hostileBody(body []byte) []byte {
	return codec.AppendFrame(nil, body)
}

func TestDecodeSummaryRejectsHostileHeaders(t *testing.T) {
	u32 := func(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
	u64 := func(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
	header := func(n uint32, minLevel byte, k, streams uint32, arrivals, nodeUpd uint64, ringLen uint32) []byte {
		b := append([]byte(summaryMagic), summaryVersion)
		b = u32(b, n)
		b = append(b, minLevel)
		b = u32(b, k)
		b = u32(b, streams)
		b = u64(b, arrivals)
		b = u64(b, nodeUpd)
		b = u32(b, ringLen)
		return b
	}
	cases := map[string][]byte{
		"bad magic":   append([]byte("NOPE"), 1),
		"bad version": append([]byte(summaryMagic), 99),
		// A decompression-bomb header: a huge claimed window whose
		// summary cannot possibly fit in this tiny body.
		"bomb window": header(1<<30, 1, 1<<20, 1, 1<<40, 0, 0),
		// Ring length beyond what the geometry admits.
		"bomb ring": header(32, 0, 1, 1, 1<<32, 0, 1<<31),
		// Non-power-of-two window.
		"bad geometry": header(33, 0, 1, 1, 0, 0, 0),
		// Zero streams with nonzero arrivals.
		"zero streams": header(32, 0, 1, 0, 4, 0, 2),
	}
	for name, body := range cases {
		if _, err := DecodeSummary(hostileBody(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An invalid node must encode its birth as zero; a nonzero residual
	// is rejected as non-canonical.
	tr := feedTree(t, Options{WindowSize: 4}, stream.Uniform(1), 1)
	frame := tr.AppendSummary(nil)
	body, _, err := codec.Next(frame, len(frame))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := DecodeSummary(frame)
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, nd := range sum.Nodes {
		if !nd.Valid {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("expected an invalid node after one arrival")
	}
	// Locate that node's birth field in the body and poke it: header is
	// 4+1+4+1+4+4+8+8+4 bytes, then the ring, then 9 bytes per node up
	// to idx (invalid nodes are exactly valid u8 + birth u64 here since
	// every node before the first valid-node coefficients is invalid).
	off := 4 + 1 + 4 + 1 + 4 + 4 + 8 + 8 + 4 + 8*len(sum.Ring)
	for i := 0; i < idx; i++ {
		off += 1 + 8
		if sum.Nodes[i].Valid {
			off += 8 * len(sum.Nodes[i].Coeffs)
		}
	}
	mut := append([]byte(nil), body...)
	binary.BigEndian.PutUint64(mut[off+1:], 7)
	if _, err := DecodeSummary(hostileBody(mut)); err == nil {
		t.Fatal("invalid node with nonzero birth accepted")
	}
}

// TestDecodeSummaryNamesTruncatedNode cuts a warm summary's body inside
// every node — between its validity byte and its birth, and inside a
// valid node's coefficients — and checks that the error names that
// node: the decoder formats node names only once a read fails.
func TestDecodeSummaryNamesTruncatedNode(t *testing.T) {
	tr := feedTree(t, Options{WindowSize: 32, Coefficients: 4, MinLevel: 1}, stream.Uniform(8), 80)
	sum := tr.Export()
	frame := tr.AppendSummary(nil)
	body, _, err := codec.Next(frame, len(frame))
	if err != nil {
		t.Fatal(err)
	}
	off := summaryHeaderLen + 8*len(sum.Ring)
	for _, nd := range sum.Nodes {
		name := fmt.Sprintf("%v%d", nd.Role, nd.Level)
		_, err := DecodeSummary(hostileBody(body[:off+1]))
		if want := "core: summary truncated in node " + name; err == nil || err.Error() != want {
			t.Errorf("cut inside node %s's header: error %v, want %q", name, err, want)
		}
		off += 1 + 8
		if !nd.Valid {
			continue
		}
		_, err = DecodeSummary(hostileBody(body[:off+8*len(nd.Coeffs)-3]))
		if want := "core: summary truncated in node " + name + " coefficients"; err == nil || err.Error() != want {
			t.Errorf("cut inside node %s's coefficients: error %v, want %q", name, err, want)
		}
		off += 8 * len(nd.Coeffs)
	}
	if off+4 != len(body) {
		t.Fatalf("the node walk ends at byte %d, not at the taint count of a %d-byte body", off, len(body))
	}
}

// goldenMergedPath pins the exact encoded bytes of a merged summary and
// of its re-merge after an encode/decode round trip; regenerate with
// -update only when the merge or encoding semantics intentionally
// change.
const goldenMergedPath = "testdata/golden_merged_summary.bin"

func buildGoldenMergeInputs(t *testing.T) (*Tree, *Tree, *Tree) {
	t.Helper()
	a := feedTree(t, Options{WindowSize: 64, Coefficients: 8}, stream.UniformRange(301, 0.1, 0.9), 200)
	b := feedTree(t, Options{WindowSize: 64, Coefficients: 2, MinLevel: 1}, stream.UniformRange(302, 0.1, 0.9), 190)
	c := feedTree(t, Options{WindowSize: 64, Coefficients: 4}, stream.UniformRange(303, 0.1, 0.9), 200)
	return a, b, c
}

func TestGoldenMergedSummary(t *testing.T) {
	a, b, c := buildGoldenMergeInputs(t)
	o := MergeOptions{ValueLo: 0, ValueHi: 1}
	merged, err := MergeSummaries(a.Export(), b.Export(), o)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := FromSummary(merged)
	if err != nil {
		t.Fatal(err)
	}
	frame := mt.AppendSummary(nil)

	// Marshal → unmarshal → re-merge with a third tree: the decoded
	// summary must behave exactly like the in-memory one.
	dec, err := DecodeSummary(frame)
	if err != nil {
		t.Fatal(err)
	}
	remerged, err := MergeSummaries(dec, c.Export(), o)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := FromSummary(remerged)
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]byte(nil), frame...), rt.AppendSummary(nil)...)

	if *updateGolden {
		if err := os.WriteFile(goldenMergedPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenMergedPath, len(got))
	}
	want, err := os.ReadFile(goldenMergedPath)
	if err != nil {
		t.Fatalf("reading golden merged summary (generate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged summary bytes diverge from golden fixture (%d vs %d bytes)", len(got), len(want))
	}
}
