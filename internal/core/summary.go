package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/wavelet"
)

// This file implements the exported, level-aligned view of a SWAT tree —
// the Summary — and its wire encoding. A Summary is the complete
// queryable state of a tree at one arrival instant: geometry, counters,
// the raw ring feeding the finest level, every R/S/L node's birth and
// block-average coefficients, and the taint spans that quantify any
// approximation the merge machinery (merge.go) has mixed in. Summaries
// are what ships between nodes: a swatd exports one, an aggregator
// merges many, and FromSummary rebuilds a live tree that continues
// exactly where the exporter stood.
//
// # Canonical bytes
//
// AppendSummary is deliberately canonical: two trees in the same
// logical state encode to identical bytes even when their in-memory
// ring heads differ (the ring is emitted in age order) or when invalid
// nodes carry different residual births (invalid births encode as 0).
// In particular FromSummary(t.Export()) followed by any update sequence
// encodes byte-identically to t fed the same updates — the property the
// replica-repair fast path in internal/netsim relies on to prove
// bit-identical reconvergence.
//
// # Encoding
//
// A summary is one codec frame (u32 bodyLen | u32 crc32c | body, see
// internal/codec) whose body is:
//
//	magic "SWSM" | version u8 |
//	N u32 | minLevel u8 | k u32 | streams u32 |
//	arrivals u64 | nodeUpdates u64 |
//	ringLen u32 | ringLen × f64 (age order, newest first) |
//	nodes in scan order (level minLevel..top, R → S → L):
//	  valid u8 | birth u64 | coeffs coeffLen×f64 (valid nodes only) |
//	taintCount u32 | taintCount × (from u64 | to u64 | half f64)
//
// Node count and per-node coefficient lengths are implied by the
// geometry header, so the scan order doubles as a structural check.

const (
	summaryMagic   = "SWSM"
	summaryVersion = uint8(1)
)

// TaintSpan marks a run of stream indices whose values entered a tree
// as bounded approximations rather than exact observations (midpoint
// fast-forwarding and ring reconstruction during merges, see merge.go).
// Indices are 1-based arrival counters, inclusive on both ends; every
// value in the span differs from the true one by at most Half. The
// coefficient of a block of blk values overlapping the span by ov
// indices is therefore off by at most Half·ov/blk, which is how
// widenedBound turns spans into per-query error bounds.
type TaintSpan struct {
	From, To int64
	Half     float64
}

// SummaryNode is one exported R/S/L cell: an isolated copy of the
// node's birth and block-average coefficients.
type SummaryNode struct {
	Level int
	Role  Role
	Valid bool
	// Birth is the arrival counter when the newest covered element
	// arrived; 0 for invalid nodes.
	Birth int64
	// Coeffs are the block averages in age order (index 0 = newest
	// block); nil for invalid nodes.
	Coeffs []float64
}

// Summary is the complete exported state of a SWAT tree: a compact,
// mergeable, wire-able synopsis of the stream's last N values. It is an
// isolated snapshot — mutating it does not affect the source tree.
type Summary struct {
	// WindowSize, MinLevel, Coefficients mirror the tree's Options.
	WindowSize   int
	MinLevel     int
	Coefficients int
	// Streams counts the source streams summed into this summary: 1 for
	// a plain export, the sum of the inputs' counts after a merge. The
	// merge alignment math scales the declared per-stream value range by
	// it.
	Streams int
	// Arrivals and NodeUpdates mirror the tree's counters.
	Arrivals    int64
	NodeUpdates uint64
	// Ring holds the raw values feeding the finest level, in age order
	// (Ring[0] = newest); length min(2^(MinLevel+1), Arrivals).
	Ring []float64
	// Nodes lists every maintained node in query scan order: level
	// MinLevel..top ascending, R → S → L within a level (top level R
	// only).
	Nodes []SummaryNode
	// Taint lists the approximation spans inherited from merges, sorted
	// by From; empty for a tree that only ever saw exact arrivals.
	Taint []TaintSpan
}

// Clone returns a deep copy of the summary.
func (s *Summary) Clone() *Summary {
	out := *s
	out.Ring = append([]float64(nil), s.Ring...)
	out.Nodes = make([]SummaryNode, len(s.Nodes))
	for i, nd := range s.Nodes {
		nd.Coeffs = append([]float64(nil), nd.Coeffs...)
		out.Nodes[i] = nd
	}
	out.Taint = append([]TaintSpan(nil), s.Taint...)
	return &out
}

// checkGeometry validates a (WindowSize, Coefficients, MinLevel) triple
// without allocating tree state; it mirrors newState's rules.
func checkGeometry(n, k, minLevel int) error {
	if !wavelet.IsPow2(n) || n < 4 {
		return fmt.Errorf("core: window size must be a power of two >= 4, got %d", n)
	}
	if k < 1 || !wavelet.IsPow2(k) {
		return fmt.Errorf("core: coefficients must be a positive power of two, got %d", k)
	}
	levels := wavelet.Log2(n)
	if minLevel < 0 || minLevel > levels-1 {
		return fmt.Errorf("core: min level %d out of range [0,%d]", minLevel, levels-1)
	}
	return nil
}

// coeffLenFor is coeffLen computed from bare geometry: min(2^(l+1), k).
func coeffLenFor(level, k int) int {
	if s := 1 << uint(level+1); s < k {
		return s
	}
	return k
}

// Validate checks the summary's internal consistency: plausible
// geometry, a ring of the natural length, nodes in scan order with full
// coefficient blocks and births on the deterministic refresh schedule,
// and well-formed taint spans. Every summary produced by Export,
// DecodeSummary, or MergeSummaries validates; hand-built or hostile
// summaries are rejected here before they can corrupt a tree.
func (s *Summary) Validate() error {
	if err := checkGeometry(s.WindowSize, s.Coefficients, s.MinLevel); err != nil {
		return err
	}
	if s.Arrivals < 0 {
		return fmt.Errorf("core: summary claims negative arrival counter %d", s.Arrivals)
	}
	if s.Streams < 0 || (s.Streams == 0 && s.Arrivals > 0) {
		return fmt.Errorf("core: summary of %d arrivals claims %d source streams", s.Arrivals, s.Streams)
	}
	ringCap := int64(1) << uint(s.MinLevel+1)
	wantRing := s.Arrivals
	if wantRing > ringCap {
		wantRing = ringCap
	}
	if int64(len(s.Ring)) != wantRing {
		return fmt.Errorf("core: summary ring holds %d values, want %d", len(s.Ring), wantRing)
	}
	levels := wavelet.Log2(s.WindowSize)
	want := 3*(levels-s.MinLevel) - 2
	if len(s.Nodes) != want {
		return fmt.Errorf("core: summary has %d nodes, want %d", len(s.Nodes), want)
	}
	i := 0
	for l := s.MinLevel; l < levels; l++ {
		roles := 3
		if l == levels-1 {
			roles = 1
		}
		for role := Right; int(role) < roles; role++ {
			nd := &s.Nodes[i]
			i++
			if nd.Level != l || nd.Role != role {
				return fmt.Errorf("core: summary node %d is %v%d, want %v%d", i-1, nd.Role, nd.Level, role, l)
			}
			if !nd.Valid {
				if len(nd.Coeffs) != 0 {
					return fmt.Errorf("core: summary node %v%d invalid but has %d coefficients", role, l, len(nd.Coeffs))
				}
				continue
			}
			if len(nd.Coeffs) != coeffLenFor(l, s.Coefficients) {
				return fmt.Errorf("core: summary node %v%d has %d coefficients, want %d", role, l, len(nd.Coeffs), coeffLenFor(l, s.Coefficients))
			}
			// Level l refreshes only when 2^l divides the arrival
			// counter, so a valid node's birth sits on that schedule.
			if nd.Birth < 1 || nd.Birth > s.Arrivals {
				return fmt.Errorf("core: summary node %v%d birth %d outside [1,%d]", role, l, nd.Birth, s.Arrivals)
			}
			if nd.Birth%(int64(1)<<uint(l)) != 0 {
				return fmt.Errorf("core: summary node %v%d birth %d off the level-%d refresh schedule", role, l, nd.Birth, l)
			}
		}
	}
	for j, sp := range s.Taint {
		if sp.From < 1 || sp.To < sp.From || sp.To > s.Arrivals {
			return fmt.Errorf("core: summary taint span %d [%d,%d] outside [1,%d]", j, sp.From, sp.To, s.Arrivals)
		}
		if !(sp.Half >= 0) || math.IsInf(sp.Half, 1) {
			return fmt.Errorf("core: summary taint span %d has half-width %v", j, sp.Half)
		}
	}
	return nil
}

// Export snapshots the tree as a Summary: an isolated, level-aligned
// copy of its complete state, safe to retain, merge, and ship.
func (t *Tree) Export() *Summary { return t.ExportInto(nil) }

// ExportInto is Export into dst's storage, reused wherever it is large
// enough, so a caller exporting many trees of one geometry in turn — a
// roll-up fold — allocates nothing per tree once dst has grown. The
// result is dst (a new summary when dst is nil) and stays valid until
// dst is exported into again.
func (t *Tree) ExportInto(dst *Summary) *Summary {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.exportSummary(dst)
}

// exportSummary builds the Summary for a state the caller has
// synchronized access to (the tree lock, or a detached state), in
// dst's storage when dst is not nil.
func (t *treeState) exportSummary(dst *Summary) *Summary {
	if dst == nil {
		dst = &Summary{}
	}
	ring, nodes := dst.Ring, dst.Nodes
	if cap(ring) < t.recentLen {
		ring = make([]float64, t.recentLen)
	}
	if cap(nodes) < t.numNodes() {
		nodes = make([]SummaryNode, t.numNodes())
	}
	*dst = Summary{
		WindowSize:   t.n,
		MinLevel:     t.minLevel,
		Coefficients: t.k,
		Streams:      t.streams,
		Arrivals:     t.arrivals,
		NodeUpdates:  t.nodeUpdates,
		Ring:         ring[:t.recentLen],
		Nodes:        nodes[:0],
		Taint:        append(dst.Taint[:0], t.taint...),
	}
	for age := range dst.Ring {
		dst.Ring[age] = t.ringAt(age)
	}
	for l := t.minLevel; l < t.levels; l++ {
		for role := Right; int(role) < t.rolesAt(l); role++ {
			nd := &t.nodes[l][role]
			sn := SummaryNode{Level: l, Role: role, Valid: nd.valid}
			if nd.valid {
				sn.Birth = nd.birth
				// The slot's previous coefficients, if any, take the copy.
				sn.Coeffs = append(nodes[:cap(nodes)][len(dst.Nodes)].Coeffs[:0], nd.coeffs...)
			}
			dst.Nodes = append(dst.Nodes, sn)
		}
	}
	return dst
}

// AppendSummary appends the tree's encoded summary — one self-contained
// codec frame — to dst and returns the extended buffer. This is the
// synopsis-shipping hot path: on a reused buffer it performs no
// allocations, so a swatd can export on every aggregation tick without
// GC pressure.
//
//swat:noalloc
func (t *Tree) AppendSummary(dst []byte) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.appendSummary(dst)
}

//swat:noalloc
func (t *treeState) appendSummary(dst []byte) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, summaryMagic...)
	dst = append(dst, summaryVersion)
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.n))
	dst = append(dst, byte(t.minLevel))
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.k))
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.streams))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.arrivals))
	dst = binary.BigEndian.AppendUint64(dst, t.nodeUpdates)
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.recentLen))
	for age := 0; age < t.recentLen; age++ {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(t.ringAt(age)))
	}
	for l := t.minLevel; l < t.levels; l++ {
		for role := Right; int(role) < t.rolesAt(l); role++ {
			nd := &t.nodes[l][role]
			if !nd.valid {
				// Invalid births encode as 0 regardless of residual
				// in-memory state, keeping the encoding canonical.
				dst = append(dst, 0)
				dst = binary.BigEndian.AppendUint64(dst, 0)
				continue
			}
			dst = append(dst, 1)
			dst = binary.BigEndian.AppendUint64(dst, uint64(nd.birth))
			for _, c := range nd.coeffs {
				dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c))
			}
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.taint)))
	for _, sp := range t.taint {
		dst = binary.BigEndian.AppendUint64(dst, uint64(sp.From))
		dst = binary.BigEndian.AppendUint64(dst, uint64(sp.To))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(sp.Half))
	}
	return codec.Finish(dst, start)
}

// summaryHeaderLen is the fixed part of a summary body: magic, version,
// N, minLevel, k, streams, arrivals, nodeUpdates and the ring length.
const summaryHeaderLen = len(summaryMagic) + 1 + 4 + 1 + 4 + 4 + 8 + 8 + 4

// MaxSummaryLen bounds the encoded length, codec frame included, of a
// summary of the given geometry: a full ring, every node valid, and
// maxTaintSpans+1 taint spans — the merge cap plus the one span
// AdvanceSummary may add to a single stream. Transports size frames
// by it before the summary exists.
func MaxSummaryLen(opts Options) (int, error) {
	k := opts.Coefficients
	if k == 0 {
		k = 1
	}
	if err := checkGeometry(opts.WindowSize, k, opts.MinLevel); err != nil {
		return 0, err
	}
	levels := wavelet.Log2(opts.WindowSize)
	n := codec.HeaderLen + summaryHeaderLen + 8<<uint(opts.MinLevel+1)
	for l := opts.MinLevel; l < levels; l++ {
		roles := 3
		if l == levels-1 {
			roles = 1
		}
		n += roles * (1 + 8 + 8*coeffLenFor(l, k))
	}
	return n + 4 + 24*(maxTaintSpans+1), nil
}

// sumReader is a cursor over a summary body with sticky truncation
// error handling.
type sumReader struct {
	b    []byte
	err  error
	what string
}

func (r *sumReader) take(n int) []byte {
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

func (r *sumReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *sumReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *sumReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *sumReader) f64() float64 { return math.Float64frombits(r.u64()) }

// DecodeSummary parses one encoded summary frame (as produced by
// AppendSummary) and validates it fully; the returned summary is safe
// to merge or restore. Decoding is hardened against hostile input: all
// allocations are bounded by the input length, and a geometry whose
// in-memory footprint is wildly out of proportion to the encoded bytes
// (a decompression-bomb-style header on a near-empty body) is rejected
// before FromSummary could size buffers off the lie.
func DecodeSummary(data []byte) (*Summary, error) {
	body, n, err := codec.Next(data, len(data))
	if err != nil {
		return nil, fmt.Errorf("core: summary frame: %w", err)
	}
	if n != len(data) {
		return nil, fmt.Errorf("core: %d trailing bytes after summary frame", len(data)-n)
	}
	r := &sumReader{b: body, what: "header"}
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

// stateFromSummary validates s and builds the tree state it describes.
// The ring head is placed at arrivals&mask — exactly where a tree that
// grew to this state naturally would hold it — so the rebuilt state is
// canonical (see AppendSummary).
func stateFromSummary(s *Summary) (*treeState, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	st, err := newState(Options{
		WindowSize:   s.WindowSize,
		Coefficients: s.Coefficients,
		MinLevel:     s.MinLevel,
	})
	if err != nil {
		return nil, err
	}
	st.arrivals = s.Arrivals
	st.nodeUpdates = s.NodeUpdates
	st.streams = s.Streams
	if st.streams == 0 {
		st.streams = 1
	}
	st.recentLen = len(s.Ring)
	st.recentHead = int(uint64(s.Arrivals) & uint64(st.recentMask))
	for age, v := range s.Ring {
		st.recent[(st.recentHead-age)&st.recentMask] = v
	}
	i := 0
	for l := st.minLevel; l < st.levels; l++ {
		for role := Right; int(role) < st.rolesAt(l); role++ {
			sn := &s.Nodes[i]
			i++
			nd := &st.nodes[l][role]
			nd.valid = sn.Valid
			nd.birth = sn.Birth
			copy(nd.coeffs, sn.Coeffs)
		}
	}
	st.taint = append([]TaintSpan(nil), s.Taint...)
	return st, nil
}

// FromSummary rebuilds a live tree from a summary. The tree continues
// exactly where the exporter stood: fed the same subsequent updates it
// stays bit-identical (in the canonical AppendSummary encoding) to the
// tree the summary was exported from.
func FromSummary(s *Summary) (*Tree, error) {
	st, err := stateFromSummary(s)
	if err != nil {
		return nil, err
	}
	return &Tree{treeState: *st}, nil
}
