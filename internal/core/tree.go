// Package core implements SWAT, the Stream Summarization using
// Wavelet-based Approximation Tree of Bulut & Singh (ICDE 2003), §2.
//
// A SWAT tree summarizes the last N values of a data stream at multiple
// resolutions. For a window of size N = 2^n the tree has n levels; a
// level-l node summarizes a segment of 2^(l+1) consecutive values with up
// to k wavelet (block-average) coefficients. Every level keeps three
// nodes — Right (newest), Shift, and Left — and level l is refreshed only
// every 2^l arrivals, so the three nodes hold progressively older
// snapshots whose covered segments slide forward between refreshes.
// The top level keeps only its Right node, giving the paper's
// 3·log N − 2 node count.
//
// The amortized per-arrival maintenance cost is O(k) and the space is
// O(k log N); queries touch at most 3 log N nodes (paper §2.6).
//
// The arrival path is allocation-free: every node owns a fixed
// pre-sized coefficient buffer, the L ← S ← R shift rotates the three
// buffers of a level pointer-wise instead of copying, and the raw
// segment feeding the finest level is gathered into a per-tree scratch
// slice reduced in place. Within a batch (UpdateBatch) only the node
// contents the batch's end leaves observable are computed.
//
// # Reader/writer discipline
//
// A Tree is internally synchronized with a single readers–writer lock:
// Update, UpdateBatch, ResetToSummary, MergeSummary and UnmarshalBinary
// take the writer side; every query entry point (Approximate,
// PointQuery, InnerProduct, RangeQuery, AnswerBatch, CoverNodes, Nodes,
// VisitNodes, Plan.Eval, MarshalBinary, Ready, ...) takes the reader
// side. Any number of goroutines may
// therefore answer queries on one tree concurrently — query scratch
// lives in a sync.Pool, not on the tree — while ingest proceeds from
// another goroutine. A writer blocks until in-flight queries drain and
// publishes its state atomically: an UpdateBatch is observed either not
// at all or in full by every query (no torn reads). Callbacks lent tree
// state (VisitNodes) run under the read lock and must not call other
// Tree methods, which could deadlock behind a waiting writer.
//
//swat:deterministic
package core

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/streamsum/swat/internal/wavelet"
)

// Role identifies one of the three node positions at a tree level.
type Role int

// Node roles, in the scan order the query algorithm uses (paper §2.4:
// "nodes at the same level in the order R → S → L").
const (
	Right Role = iota
	Shift
	Left
)

// String returns the paper's node naming (R, S, L).
func (r Role) String() string {
	switch r {
	case Right:
		return "R"
	case Shift:
		return "S"
	case Left:
		return "L"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Options configures a SWAT tree.
type Options struct {
	// WindowSize is N, the sliding-window size. Must be a power of two,
	// at least 4.
	WindowSize int
	// Coefficients is k, the number of coefficients kept per node. Must
	// be a power of two; 0 means 1 (the paper's default single average).
	Coefficients int
	// MinLevel drops the levels below it (paper §2.5, "maintaining the
	// approximations for only the top k < log N levels"). 0 keeps the
	// full tree; larger values save space at the cost of precision. Must
	// satisfy 0 <= MinLevel <= log2(WindowSize)-1.
	MinLevel int
}

// node is one R/S/L cell of the tree.
type node struct {
	// coeffs is the node's fixed coefficient buffer, holding block
	// averages in age order (index 0 = newest block). Buffers are
	// allocated once at construction and rotated between the three
	// nodes of a level on every shift; the contents are meaningful only
	// while valid is set.
	coeffs []float64
	// birth is the arrival counter value when the newest element covered
	// by this node arrived. The node's covered ages at arrival counter t
	// are [t-birth, t-birth+segLen-1].
	birth int64
	valid bool
}

// Tree is a SWAT approximation tree. It is safe for concurrent use
// under the package's reader/writer discipline: the internal lock
// serializes writers (Update, UpdateBatch, ResetToSummary, ...)
// against each other and against queries, while queries from any number of
// goroutines run concurrently.
type Tree struct {
	mu sync.RWMutex
	treeState
}

// treeState holds all mutable tree data behind the lock, separated from
// Tree so ResetToSummary can replace the state of another geometry
// wholesale without copying the lock.
type treeState struct {
	n        int // window size N
	levels   int // log2 N
	minLevel int
	k        int

	// nodes[l][role]; the top level uses only nodes[levels-1][Right].
	nodes [][3]node

	// recent holds the last 2^(minLevel+1) raw values, newest first
	// conceptually (stored as a ring), feeding the finest kept level.
	recent     []float64
	recentMask int // len(recent)-1; len is a power of two
	recentHead int
	recentLen  int

	arrivals    int64
	nodeUpdates uint64

	// streams counts the source streams summed into this tree: 1 for a
	// tree fed by Update alone, the sum of the inputs' counts after a
	// merge (see merge.go). The merge alignment math scales the declared
	// per-stream value range by it.
	streams int

	// taint lists the stream-index spans whose values entered the tree
	// as bounded approximations during merges, sorted by From. Empty —
	// and untouched by the arrival hot path — for a tree that only ever
	// saw exact arrivals; the bounded query entry points widen their
	// reported error bounds from it.
	taint []TaintSpan

	// generation versions everything a query or compiled plan depends
	// on: node validity, coefficient contents, and covered-age
	// boundaries. Every arrival slides the boundaries of the nodes it
	// does not refresh (Start = arrivals − birth), so the generation
	// advances once per arrival; every install (ResetToSummary, which
	// UnmarshalBinary and MergeSummary run) bumps it too, since it
	// rewrites node contents. Plans compare generations to detect
	// staleness (see plan.go).
	generation uint64

	// rawScratch gathers the finest level's raw segment out of the ring
	// and is reduced in place; len == len(recent).
	rawScratch []float64
}

// New creates an empty SWAT tree. The tree answers queries only after
// enough arrivals; Ready reports full warm-up.
func New(opts Options) (*Tree, error) {
	st, err := newState(opts)
	if err != nil {
		return nil, err
	}
	return &Tree{treeState: *st}, nil
}

func newState(opts Options) (*treeState, error) {
	n := opts.WindowSize
	if !wavelet.IsPow2(n) || n < 4 {
		return nil, fmt.Errorf("core: window size must be a power of two >= 4, got %d", n)
	}
	k := opts.Coefficients
	if k == 0 {
		k = 1
	}
	if !wavelet.IsPow2(k) {
		return nil, fmt.Errorf("core: coefficients must be a power of two, got %d", k)
	}
	levels := wavelet.Log2(n)
	if opts.MinLevel < 0 || opts.MinLevel > levels-1 {
		return nil, fmt.Errorf("core: min level %d out of range [0,%d]", opts.MinLevel, levels-1)
	}
	ringLen := 1 << uint(opts.MinLevel+1)
	t := &treeState{
		n:          n,
		levels:     levels,
		minLevel:   opts.MinLevel,
		k:          k,
		streams:    1,
		nodes:      make([][3]node, levels),
		recent:     make([]float64, ringLen),
		recentMask: ringLen - 1,
		rawScratch: make([]float64, ringLen),
	}
	// Pre-size every node's coefficient buffer out of one backing
	// allocation; the arrival path never allocates after this.
	total := 0
	for l := t.minLevel; l < t.levels; l++ {
		total += t.rolesAt(l) * t.coeffLen(l)
	}
	backing := make([]float64, total)
	for l := t.minLevel; l < t.levels; l++ {
		cl := t.coeffLen(l)
		for r := 0; r < t.rolesAt(l); r++ {
			t.nodes[l][r].coeffs = backing[:cl:cl]
			backing = backing[cl:]
		}
	}
	return t, nil
}

// rolesAt returns how many of the three roles level l maintains.
func (t *treeState) rolesAt(l int) int {
	if l == t.levels-1 {
		return 1
	}
	return 3
}

// Tree geometry accessors read fields that only ResetToSummary (and so
// UnmarshalBinary and MergeSummary) can change, so they take the read
// lock like every other reader.

// WindowSize returns N.
func (t *Tree) WindowSize() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// Levels returns log2(N), the number of levels of a full tree.
func (t *Tree) Levels() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.levels
}

// MinLevel returns the finest maintained level (0 for a full tree).
func (t *Tree) MinLevel() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.minLevel
}

// Coefficients returns k, the per-node coefficient budget.
func (t *Tree) Coefficients() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.k
}

// NumNodes returns the number of maintained nodes: 3·(levels−minLevel)−2,
// which is the paper's 3·log N − 2 for a full tree.
func (t *Tree) NumNodes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.numNodes()
}

func (t *treeState) numNodes() int { return 3*(t.levels-t.minLevel) - 2 }

// Arrivals returns the number of values consumed so far.
func (t *Tree) Arrivals() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.arrivals
}

// NodeUpdates returns the total number of node refreshes performed, used
// to verify the paper's O(kN)-per-cycle (amortized O(k) per arrival)
// update complexity.
func (t *Tree) NodeUpdates() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodeUpdates
}

// Streams returns how many source streams were summed into this tree:
// 1 for a tree fed by Update alone, the sum of the inputs' counts after
// a merge.
func (t *Tree) Streams() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.streams
}

// TaintSpans returns a copy of the tree's approximation spans — the
// stream-index runs whose values entered the tree as bounded
// approximations during merges. An empty result means every coefficient
// derives from exact arrivals and the bounded query entry points report
// zero-width bounds.
func (t *Tree) TaintSpans() []TaintSpan {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]TaintSpan(nil), t.taint...)
}

// Generation returns the tree's query-visible version. It advances on
// every arrival (each arrival slides the covered-age boundaries of the
// nodes it does not refresh) and on snapshot restore; compiled plans
// cache work per generation and transparently recompile on mismatch.
func (t *Tree) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.generation
}

// segLen returns the segment length 2^(l+1) of a level-l node.
func (t *treeState) segLen(level int) int { return 1 << uint(level+1) }

// coeffLen returns the coefficient count of a level-l node.
func (t *treeState) coeffLen(level int) int {
	if s := t.segLen(level); s < t.k {
		return s
	}
	return t.k
}

// ringAt returns the raw value age arrivals back (age 0 = newest). The
// ring length is a power of two, so a mask replaces the modulo; Go's
// two's-complement & keeps the index in range even when head-age is
// negative.
func (t *treeState) ringAt(age int) float64 {
	return t.recent[(t.recentHead-age)&t.recentMask]
}

// Ready reports whether every maintained node holds valid data, i.e. the
// tree has fully warmed up. Warm-up completes within 3·2^(levels-1)
// arrivals.
func (t *Tree) Ready() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ready()
}

func (t *treeState) ready() bool {
	for l := t.minLevel; l < t.levels; l++ {
		if !t.nodes[l][Right].valid {
			return false
		}
		if l < t.levels-1 && (!t.nodes[l][Shift].valid || !t.nodes[l][Left].valid) {
			return false
		}
	}
	return true
}

// Update consumes the next stream value, refreshing every level l with
// 2^l dividing the new arrival count (paper Fig. 3(a)). The shift chain
// L ← S ← R runs before R is recomputed from the already-refreshed
// children of the level below. Update is UpdateBatch over a batch of
// one, where every due refresh is observable and so computed. The path
// is allocation-free; it takes the writer lock, so it excludes
// concurrent queries for its (O(k) amortized) duration.
//
//swat:noalloc
func (t *Tree) Update(v float64) {
	vs := [1]float64{v}
	t.mu.Lock()
	t.updateBatch(vs[:])
	t.mu.Unlock()
}

// UpdateBatch consumes values in arrival order. The resulting tree
// state is bit-identical to calling Update once per value, but the
// writer lock is taken once for the whole batch, so concurrent queries
// observe the batch atomically (entirely applied or not at all), and
// only the batch's end state is observable. UpdateBatch uses that to
// skip work no reader can see, for every MinLevel:
//
//   - arrivals strictly between two refresh boundaries (multiples of
//     2^MinLevel) touch only the raw ring and are written in bulk runs;
//   - a level-l refresh at arrival t still shifts L ← S ← R and stamps
//     R's birth (counted in NodeUpdates), but computes R's coefficients
//     only if a later reader exists: level l+1 reads it when 2^(l+1)
//     divides t, and level l's final R, S and L are its last three
//     refreshes, all within 3·2^l arrivals of the batch's end.
//
// At MinLevel 0 that roughly halves the coefficient work per value.
//
//swat:noalloc
func (t *Tree) UpdateBatch(vs []float64) {
	t.mu.Lock()
	t.updateBatch(vs)
	t.mu.Unlock()
}

//swat:noalloc
func (t *treeState) updateBatch(vs []float64) {
	end := t.arrivals + int64(len(vs))
	mask := 1<<uint(t.minLevel) - 1
	for len(vs) > 0 {
		// The arrivals up to the next refresh boundary only feed the
		// ring; the boundary's refresh follows them.
		run := mask + 1 - int(t.arrivals)&mask
		if run > len(vs) {
			run = len(vs)
		}
		head := t.recentHead
		for _, v := range vs[:run] {
			head = (head + 1) & t.recentMask
			t.recent[head] = v
		}
		t.recentHead = head
		if t.recentLen += run; t.recentLen > len(t.recent) {
			t.recentLen = len(t.recent)
		}
		t.arrivals += int64(run)
		t.generation += uint64(run)
		vs = vs[run:]
		if int(t.arrivals)&mask == 0 {
			t.refresh(end)
		}
	}
}

// refresh runs the level refreshes due at the current arrival, a
// multiple of 2^minLevel, in a batch that ends at arrival end. Every
// due level shifts L ← S ← R and stamps R's birth; R's coefficients
// are computed only when some reader can see them (see UpdateBatch).
// The one refresh that can go unread is that of level tz, the
// arrival's highest when 2^(tz+1) does not divide it: its parent never
// reads it, so it is skipped unless it lands within 3·2^tz arrivals of
// end. A skipped R is marked invalid; it is shifted out of the level
// before anything reads it.
func (t *treeState) refresh(end int64) {
	tz := bits.TrailingZeros64(uint64(t.arrivals))
	top := tz
	if top > t.levels-1 {
		top = t.levels - 1
	}
	left := end - t.arrivals
	t.nodeUpdates += uint64(top - t.minLevel + 1)
	for l := t.minLevel; l <= top; l++ {
		lv := &t.nodes[l]
		if l < t.levels-1 {
			// The buffer falling off L becomes R's write target.
			spare := lv[Left].coeffs
			lv[Left] = lv[Shift]
			lv[Shift] = lv[Right]
			lv[Right].coeffs = spare
		}
		nd := &lv[Right]
		nd.birth = t.arrivals
		if l < tz || left < int64(3)<<uint(l) {
			nd.valid = t.fillRight(l, nd.coeffs)
		} else {
			nd.valid = false
		}
	}
}

// fillRight computes the new contents of R_l into dst (the node's fixed
// buffer, len == coeffLen(l)) at the current arrival, reporting whether
// the inputs were warm enough to produce valid data.
func (t *treeState) fillRight(l int, dst []float64) bool {
	if l == t.minLevel {
		seg := len(t.rawScratch) // == segLen(minLevel) == ring size
		if t.recentLen < seg {
			return false
		}
		if seg == 2 {
			fillPair(dst, t.ringAt(0), t.ringAt(1))
			return true
		}
		for age := 0; age < seg; age++ {
			t.rawScratch[age] = t.ringAt(age)
		}
		res, err := wavelet.AveragesInPlace(t.rawScratch, len(dst))
		if err != nil {
			// Unreachable: lengths are powers of two by construction.
			panic(fmt.Sprintf("core: averaging raw segment: %v", err))
		}
		copy(dst, res)
		return true
	}
	newer := &t.nodes[l-1][Right] // covers ages [0, 2^l-1] after its refresh
	older := &t.nodes[l-1][Left]  // covers ages [2^l, 2^(l+1)-1]
	if !newer.valid || !older.valid {
		return false
	}
	if len(dst) == 1 {
		combineOne(dst, newer.coeffs, older.coeffs)
		return true
	}
	// The combine reads the children's buffers and writes this level's —
	// distinct allocations, so no aliasing. The result always fills dst
	// exactly: coeffLen is non-decreasing in the level.
	if _, err := wavelet.CombineAveragesInto(dst, newer.coeffs, older.coeffs, len(dst)); err != nil {
		panic(fmt.Sprintf("core: combining children: %v", err))
	}
	return true
}

// fillPair writes a level-0 node from its two raw values, newest
// first: their mean when the node keeps one coefficient (the single
// pairwise pass of wavelet.AveragesInPlace), else the values themselves.
//
//swat:noalloc
func fillPair(dst []float64, newer, older float64) {
	if len(dst) == 1 {
		dst[0] = (newer + older) / 2
		return
	}
	dst[0], dst[1] = newer, older
}

// combineOne is wavelet.CombineAveragesInto for one coefficient per
// child and per parent: the mean of the two children's means, the same
// floating-point operation.
//
//swat:noalloc
func combineOne(dst, newer, older []float64) {
	dst[0] = (newer[0] + older[0]) / 2
}

// NodeInfo is a read-only snapshot of one tree node, for introspection,
// tests, and the replication layer.
type NodeInfo struct {
	// Level is the node's tree level.
	Level int
	// Role is R, S, or L.
	Role Role
	// Valid reports whether the node holds data.
	Valid bool
	// Start and End are the covered ages [Start, End] at snapshot time
	// (age 0 = most recent value). End-Start+1 == 2^(Level+1).
	Start, End int
	// Coeffs are the stored block averages, newest block first. Nil for
	// invalid nodes.
	Coeffs []float64
}

// String renders the node the way the paper labels them (e.g. "R2[3-10]").
func (ni NodeInfo) String() string {
	return fmt.Sprintf("%v%d[%d-%d]", ni.Role, ni.Level, ni.Start, ni.End)
}

// infoView snapshots node (l, role) without copying: the returned
// Coeffs alias the node's internal buffer and stay accurate only until
// the next Update.
func (t *treeState) infoView(l int, role Role) NodeInfo {
	nd := &t.nodes[l][role]
	start := int(t.arrivals - nd.birth)
	ni := NodeInfo{
		Level: l,
		Role:  role,
		Valid: nd.valid,
		Start: start,
		End:   start + t.segLen(l) - 1,
	}
	if nd.valid {
		ni.Coeffs = nd.coeffs
	}
	return ni
}

// info snapshots node (l, role) with an isolated coefficient copy.
func (t *treeState) info(l int, role Role) NodeInfo {
	ni := t.infoView(l, role)
	ni.Coeffs = append([]float64(nil), ni.Coeffs...)
	return ni
}

// VisitNodes calls fn for every maintained node in query scan order
// (level minLevel..top, R → S → L within a level) until fn returns
// false. This is the zero-copy read path: the NodeInfo passed to fn
// lends the tree's internal coefficient storage, so fn must not modify
// the Coeffs slice or retain it past the callback (use Nodes for an
// isolated snapshot). fn runs under the tree's read lock and must not
// call other Tree methods.
//
//swat:noalloc
func (t *Tree) VisitNodes(fn func(NodeInfo) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for l := t.minLevel; l < t.levels; l++ {
		if !fn(t.infoView(l, Right)) {
			return
		}
		if l < t.levels-1 {
			if !fn(t.infoView(l, Shift)) {
				return
			}
			if !fn(t.infoView(l, Left)) {
				return
			}
		}
	}
}

// Nodes returns snapshots of all maintained nodes in query scan order
// (level minLevel..top, R → S → L within a level). The snapshots are
// isolated copies, safe to retain.
func (t *Tree) Nodes() []NodeInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]NodeInfo, 0, t.numNodes())
	for l := t.minLevel; l < t.levels; l++ {
		out = append(out, t.info(l, Right))
		if l < t.levels-1 {
			out = append(out, t.info(l, Shift), t.info(l, Left))
		}
	}
	return out
}
