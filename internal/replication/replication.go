// Package replication implements SWAT-ASR, the paper's adaptive stream
// replication protocol (§3): the window is partitioned into directory
// segments, each segment's range approximation is replicated over a
// subtree of the network that expands where reads dominate and contracts
// where writes dominate, following the Adaptive Data Replication tests of
// Wolfson, Jajodia & Huang executed at the end of every phase.
//
//swat:deterministic
package replication

import (
	"fmt"
	"math"
	"sort"

	"github.com/streamsum/swat/internal/netsim"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
	"github.com/streamsum/swat/internal/wavelet"
)

// Message kinds recorded in the counter.
const (
	MsgQuery       = "query"
	MsgReply       = "reply"
	MsgUpdate      = "update"
	MsgInsert      = "insert"
	MsgUnsubscribe = "unsubscribe"
)

// Range is the [Lo, Hi] approximation cached for a stream segment: every
// value of the segment lies within it.
type Range struct {
	Lo, Hi float64
}

// Width returns Hi-Lo, the precision the range offers.
func (r Range) Width() float64 { return r.Hi - r.Lo }

// Mid returns the range midpoint, the value used to answer queries.
func (r Range) Mid() float64 { return (r.Lo + r.Hi) / 2 }

// Encloses reports whether r contains o entirely.
func (r Range) Encloses(o Range) bool { return r.Lo <= o.Lo && o.Hi <= r.Hi }

// Contains reports whether v lies within r.
func (r Range) Contains(v float64) bool { return r.Lo <= v && v <= r.Hi }

// Segment is a window segment (From, To) in age coordinates, inclusive.
type Segment struct {
	From, To int
}

// Len returns the number of values in the segment.
func (s Segment) Len() int { return s.To - s.From + 1 }

func (s Segment) String() string { return fmt.Sprintf("(%d,%d)", s.From, s.To) }

// Segments partitions a window of size n (a power of two >= 4) into the
// paper's directory rows: (0,1), (2,3), (4,7), (8,15), ..., (n/2, n-1) —
// "one row for every level (except level 0 which has two rows)" (Table 1).
func Segments(n int) ([]Segment, error) {
	if !wavelet.IsPow2(n) || n < 4 {
		return nil, fmt.Errorf("replication: window size must be a power of two >= 4, got %d", n)
	}
	segs := []Segment{{0, 1}, {2, 3}}
	for from := 4; from < n; from *= 2 {
		segs = append(segs, Segment{from, 2*from - 1})
	}
	return segs, nil
}

// segDir is one node's directory row for one segment.
type segDir struct {
	cached bool
	rng    Range
	// means holds k block averages of the segment (the paper's "general
	// case" of §3: "the client would maintain the desired number of
	// coefficients and a range"). They piggyback on range messages at no
	// extra message cost and sharpen answers; the range alone guarantees
	// correctness.
	means      []float64
	subscribed map[netsim.NodeID]bool
	interested map[netsim.NodeID]bool
	readCount  map[netsim.NodeID]uint64
	localReads uint64
	writes     uint64
}

func newSegDir() *segDir {
	return &segDir{
		subscribed: make(map[netsim.NodeID]bool),
		interested: make(map[netsim.NodeID]bool),
		readCount:  make(map[netsim.NodeID]uint64),
	}
}

// Options configures a SWAT-ASR system.
type Options struct {
	// WindowSize is N, a power of two >= 4.
	WindowSize int
	// Coefficients is the number of block averages cached per segment
	// (power of two; 0 means 1, the paper's base setting of §3).
	Coefficients int
}

// System is a running SWAT-ASR deployment over a topology: the stream
// source at the root, client caches below.
type System struct {
	top     *netsim.Topology
	counter *netsim.Counter
	segs    []Segment
	k       int
	window  *stream.Window
	// dirs[node][segIdx]
	dirs [][]*segDir

	queriesAnswered uint64
	localHits       uint64
}

// New creates a SWAT-ASR system for a sliding window of size n over the
// given topology, with single-average segment approximations. The root
// of the topology is the stream source.
func New(top *netsim.Topology, n int) (*System, error) {
	return NewWithOptions(top, Options{WindowSize: n})
}

// NewWithOptions creates a SWAT-ASR system with the general
// k-coefficient segment approximations of §3.
func NewWithOptions(top *netsim.Topology, opts Options) (*System, error) {
	if top == nil || top.Len() < 1 {
		return nil, fmt.Errorf("replication: empty topology")
	}
	n := opts.WindowSize
	k := opts.Coefficients
	if k == 0 {
		k = 1
	}
	if !wavelet.IsPow2(k) {
		return nil, fmt.Errorf("replication: coefficients must be a power of two, got %d", k)
	}
	segs, err := Segments(n)
	if err != nil {
		return nil, err
	}
	w, err := stream.NewWindow(n)
	if err != nil {
		return nil, err
	}
	s := &System{
		top:     top,
		counter: netsim.NewCounter(),
		segs:    segs,
		k:       k,
		window:  w,
		dirs:    make([][]*segDir, top.Len()),
	}
	for i := range s.dirs {
		s.dirs[i] = make([]*segDir, len(segs))
		for j := range s.dirs[i] {
			s.dirs[i][j] = newSegDir()
		}
	}
	// The source always holds every segment (it is always a member of
	// every replication scheme).
	for j := range segs {
		s.dirs[top.Root()][j].cached = true
		s.dirs[top.Root()][j].rng = Range{Lo: math.Inf(-1), Hi: math.Inf(1)}
	}
	return s, nil
}

// Name identifies the protocol in experiment output.
func (s *System) Name() string { return "SWAT-ASR" }

// Messages returns the message counter.
func (s *System) Messages() *netsim.Counter { return s.counter }

// Segments returns the directory partition.
func (s *System) Segments() []Segment {
	return append([]Segment(nil), s.segs...)
}

// Ready reports whether the source window is full.
func (s *System) Ready() bool { return s.window.Len() == s.window.Cap() }

// LocalHitRate returns the fraction of queries answered from a cache at
// the node they arrived at.
func (s *System) LocalHitRate() float64 {
	if s.queriesAnswered == 0 {
		return 0
	}
	return float64(s.localHits) / float64(s.queriesAnswered)
}

// OnData consumes a new stream value at the source: the window slides,
// every segment's exact range is recomputed, and changed ranges propagate
// to subscribed children per the paper's message handler (Fig. 8(a)) —
// an update is pushed only when the old range no longer encloses the new.
func (s *System) OnData(v float64) {
	s.window.Push(v)
	for j, seg := range s.segs {
		if seg.To >= s.window.Len() {
			continue // warm-up: segment not fully populated yet
		}
		lo, hi, err := s.window.MinMax(seg.From, seg.To)
		if err != nil {
			// Unreachable: bounds checked above.
			panic(fmt.Sprintf("replication: window minmax: %v", err))
		}
		s.applyUpdate(s.top.Root(), j, Range{Lo: lo, Hi: hi}, s.segmentMeans(seg), true)
	}
}

// applyUpdate is the Fig. 8(a) update handler at one node: replace the
// stored range and block means and, if the old range did not enclose the
// new one, count a write and push to subscribed children. countWrite is
// false for phase-end refreshes, which belong to the next phase's
// statistics.
func (s *System) applyUpdate(id netsim.NodeID, segIdx int, r Range, means []float64, countWrite bool) {
	d := s.dirs[id][segIdx]
	old := d.rng
	hadRange := d.cached
	d.rng = r
	d.means = means
	d.cached = true
	if hadRange && old.Encloses(r) {
		return
	}
	if countWrite {
		d.writes++
	}
	for _, child := range sortedIDs(d.subscribed) {
		s.counter.Count(MsgUpdate, 1)
		s.applyUpdate(child, segIdx, r, means, countWrite)
	}
}

// segmentMeans computes the k block averages of a segment from the
// source window.
func (s *System) segmentMeans(seg Segment) []float64 {
	blocks := s.k
	if seg.Len() < blocks {
		blocks = seg.Len()
	}
	out := make([]float64, blocks)
	blockLen := seg.Len() / blocks
	for b := range out {
		lo := seg.From + b*blockLen
		m, err := s.window.Mean(lo, lo+blockLen-1)
		if err != nil {
			// Unreachable: OnData validated the segment bounds.
			panic(fmt.Sprintf("replication: segment mean: %v", err))
		}
		out[b] = m
	}
	return out
}

// answerValue reads the cached approximation for one age of a segment:
// the covering block mean, clamped into the (conservatively maintained)
// range so stale means can never violate the offered precision.
func (d *segDir) answerValue(seg Segment, age int) float64 {
	if len(d.means) == 0 {
		return d.rng.Mid()
	}
	blockLen := seg.Len() / len(d.means)
	b := (age - seg.From) / blockLen
	v := d.means[b]
	if v < d.rng.Lo {
		v = d.rng.Lo
	}
	if v > d.rng.Hi {
		v = d.rng.Hi
	}
	return v
}

// neededSegments maps the query's ages to directory segment indices.
func (s *System) neededSegments(q query.Query) (map[int]float64, error) {
	// weightBySeg accumulates the total weight each segment carries in
	// the precision check Σ wᵢ·width(seg(i)) ≤ δ.
	weightBySeg := make(map[int]float64)
	for i, age := range q.Ages {
		if age < 0 || age >= s.window.Cap() {
			return nil, fmt.Errorf("replication: age %d outside window [0,%d)", age, s.window.Cap())
		}
		idx := -1
		for j, seg := range s.segs {
			if age >= seg.From && age <= seg.To {
				idx = j
				break
			}
		}
		if idx < 0 {
			// Unreachable: segments partition the window.
			panic(fmt.Sprintf("replication: age %d not in any segment", age))
		}
		weightBySeg[idx] += math.Abs(q.Weights[i])
	}
	return weightBySeg, nil
}

// OnQuery processes a query arriving at the given node. The query is
// answered from the local cache when the offered precision suffices,
// otherwise it is forwarded toward the source; the node that answers
// accounts the read to the child it arrived from (paper §3).
func (s *System) OnQuery(at netsim.NodeID, q query.Query) (float64, error) {
	if !s.top.Valid(at) {
		return 0, fmt.Errorf("replication: invalid node %d", at)
	}
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if !s.Ready() {
		return 0, fmt.Errorf("replication: source window not full yet")
	}
	s.queriesAnswered++
	ans, local, err := s.answer(at, q, netsim.NoNode)
	if err != nil {
		return 0, err
	}
	if local {
		s.localHits++
	}
	return ans, nil
}

// answer resolves q at node id; from is the child that forwarded it
// (NoNode when the query originated here). The boolean reports whether
// the originating node satisfied it locally.
func (s *System) answer(id netsim.NodeID, q query.Query, from netsim.NodeID) (float64, bool, error) {
	weightBySeg, err := s.neededSegments(q)
	if err != nil {
		return 0, false, err
	}
	if v, ok := s.tryLocal(id, q, weightBySeg, from); ok {
		return v, from == netsim.NoNode, nil
	}
	if id == s.top.Root() {
		// The source is the primary data holder: answer exactly from the
		// raw window and account the read demand for the expansion test.
		s.accountReads(id, weightBySeg, from)
		var sum float64
		for i, age := range q.Ages {
			v, err := s.window.At(age)
			if err != nil {
				return 0, false, err
			}
			sum += q.Weights[i] * v
		}
		return sum, from == netsim.NoNode, nil
	}
	parent := s.top.Parent(id)
	s.counter.Count(MsgQuery, 1)
	ans, _, err := s.answer(parent, q, id)
	if err != nil {
		return 0, false, err
	}
	s.counter.Count(MsgReply, 1)
	return ans, false, nil
}

// tryLocal answers q from node id's cache when every needed segment is
// cached and the combined precision Σ wᵢ·width ≤ δ holds.
func (s *System) tryLocal(id netsim.NodeID, q query.Query, weightBySeg map[int]float64, from netsim.NodeID) (float64, bool) {
	// Iterate segments in index order, not map order: the precision sum
	// is a float accumulation, and float addition is not associative —
	// randomized map order would move the offered precision by an ulp
	// between runs, enough to flip the ≤ δ decision on a boundary and
	// break seeded replay.
	var offered float64
	for segIdx := range s.segs {
		wsum, ok := weightBySeg[segIdx]
		if !ok {
			continue
		}
		d := s.dirs[id][segIdx]
		if !d.cached {
			return 0, false
		}
		offered += wsum * d.rng.Width()
	}
	if offered > q.Precision {
		return 0, false
	}
	var sum float64
	for i, age := range q.Ages {
		for j, seg := range s.segs {
			if age >= seg.From && age <= seg.To {
				sum += q.Weights[i] * s.dirs[id][j].answerValue(seg, age)
				break
			}
		}
	}
	s.accountReads(id, weightBySeg, from)
	return sum, true
}

// accountReads implements the read bookkeeping of Fig. 8(a): the
// answering node increments, per involved segment, either its local read
// count or the per-child count of the child the query arrived from,
// marking unknown children as interested.
func (s *System) accountReads(id netsim.NodeID, weightBySeg map[int]float64, from netsim.NodeID) {
	// Segment-index order for the same reason as tryLocal: bookkeeping
	// updates must not observe randomized map iteration order.
	for segIdx := range s.segs {
		if _, ok := weightBySeg[segIdx]; !ok {
			continue
		}
		d := s.dirs[id][segIdx]
		if from == netsim.NoNode {
			d.localReads++
			continue
		}
		if !d.subscribed[from] && !d.interested[from] {
			d.interested[from] = true
		}
		d.readCount[from]++
	}
}

// OnPhaseEnd runs the paper's Fig. 8(b) tests at every node: contraction
// at R-fringe nodes (decache when local reads < writes), expansion toward
// subscribed children whose read demand exceeded the write rate (refresh
// with the current, tighter range) and toward interested children (send a
// replica). Decisions use the phase's counters, which are then reset;
// refreshes triggered here do not count as next-phase writes.
func (s *System) OnPhaseEnd() {
	for _, id := range s.top.BFSOrder() {
		for segIdx := range s.segs {
			d := s.dirs[id][segIdx]
			if id != s.top.Root() && d.cached && len(d.subscribed) == 0 {
				// Contraction test at an R-fringe node.
				if d.localReads < d.writes {
					d.cached = false
					s.counter.Count(MsgUnsubscribe, 1)
					delete(s.dirs[s.top.Parent(id)][segIdx].subscribed, id)
					continue
				}
			}
			if !d.cached {
				continue
			}
			// Expansion tests at an R̄-neighbor node.
			for _, v := range sortedIDs(d.subscribed) {
				if d.writes < d.readCount[v] {
					s.counter.Count(MsgUpdate, 1)
					s.applyUpdate(v, segIdx, d.rng, d.means, false)
				}
			}
			for _, v := range sortedIDs(d.interested) {
				delete(d.interested, v)
				if d.writes < d.readCount[v] {
					d.subscribed[v] = true
					s.counter.Count(MsgInsert, 1)
					s.applyUpdate(v, segIdx, d.rng, d.means, false)
				}
			}
		}
	}
	// Reset all counters for the next phase.
	for _, id := range s.top.BFSOrder() {
		for segIdx := range s.segs {
			d := s.dirs[id][segIdx]
			d.localReads = 0
			d.writes = 0
			d.readCount = make(map[netsim.NodeID]uint64)
		}
	}
}

// DirectoryRow is one row of a node's directory (paper Table 1).
type DirectoryRow struct {
	Segment    Segment
	Range      Range
	Cached     bool
	Subscribed []netsim.NodeID
}

// Directory returns the node's current directory, one row per segment.
func (s *System) Directory(id netsim.NodeID) ([]DirectoryRow, error) {
	if !s.top.Valid(id) {
		return nil, fmt.Errorf("replication: invalid node %d", id)
	}
	rows := make([]DirectoryRow, len(s.segs))
	for j, seg := range s.segs {
		d := s.dirs[id][j]
		rows[j] = DirectoryRow{
			Segment:    seg,
			Range:      d.rng,
			Cached:     d.cached,
			Subscribed: sortedIDs(d.subscribed),
		}
	}
	return rows, nil
}

// Caches reports whether node id currently holds a replica of segment j.
func (s *System) Caches(id netsim.NodeID, segIdx int) bool {
	if !s.top.Valid(id) || segIdx < 0 || segIdx >= len(s.segs) {
		return false
	}
	return s.dirs[id][segIdx].cached
}

func sortedIDs(set map[netsim.NodeID]bool) []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
