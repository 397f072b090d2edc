// Package aps implements Adaptive Precision Setting (Olston, Widom & Loo,
// SIGMOD 2001; paper §4.2): per cached value, an interval [L, H] that is
// enlarged by a factor (1+α) on value-initiated refreshes (the value
// escaped the interval) and shrunk by (1+α) on query-initiated refreshes
// (a query needed more precision than the interval offers). The paper
// runs it with its recommended settings α=1, τ∞=∞, τ0=2, p=1,
// independently for each data item in the sliding window.
//
//swat:deterministic
package aps

import (
	"fmt"
	"math"

	"github.com/streamsum/swat/internal/netsim"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
)

// Message kinds recorded in the counter.
const (
	MsgRequest = "request" // query-initiated refresh request
	MsgReply   = "reply"   // reply carrying value + shrunk interval
	MsgRefresh = "refresh" // value-initiated refresh (interval escape)
)

// Options configures an Adaptive Precision Setting deployment.
type Options struct {
	// WindowSize is N; one cached interval per data item per client.
	WindowSize int
	// Alpha is the adaptivity parameter α (0 means 1, the paper's
	// setting): growth/shrink factor (1+α).
	Alpha float64
	// TauZero is τ₀: intervals narrower than this snap to exact caching
	// (0 means 2, the paper's setting).
	TauZero float64
	// TauInf is τ∞: intervals wider than this are dropped from the cache
	// (0 means +Inf, the paper's setting).
	TauInf float64
	// InitialWidth is the interval width granted by the first
	// query-initiated refresh of an uncached item; 0 means the query's
	// own tolerance.
	InitialWidth float64
}

// itemState is the per-(client, item) cached interval. logW is the
// logical width the adaptivity rule evolves; the effective interval
// snaps to exact caching (width 0) below τ₀ but keeps evolving from
// logW so growth can escape the exact-caching regime.
type itemState struct {
	cached bool
	lo, hi float64
	logW   float64
}

func (st *itemState) width() float64 { return st.hi - st.lo }

// System is a running APS deployment over a topology: source at the
// root, clients below, each caching intervals for all N items.
type System struct {
	opts    Options
	top     *netsim.Topology
	counter *netsim.Counter
	window  *stream.Window
	state   [][]itemState
	hops    []int
}

// New creates an APS system over the topology.
func New(top *netsim.Topology, opts Options) (*System, error) {
	if top == nil || top.Len() < 1 {
		return nil, fmt.Errorf("aps: empty topology")
	}
	if opts.WindowSize < 1 {
		return nil, fmt.Errorf("aps: window size %d", opts.WindowSize)
	}
	if opts.Alpha == 0 {
		opts.Alpha = 1
	}
	if opts.Alpha < 0 {
		return nil, fmt.Errorf("aps: negative alpha %v", opts.Alpha)
	}
	if opts.TauZero == 0 {
		opts.TauZero = 2
	}
	if opts.TauInf == 0 {
		opts.TauInf = math.Inf(1)
	}
	if opts.TauZero < 0 || opts.TauInf < opts.TauZero {
		return nil, fmt.Errorf("aps: invalid thresholds τ0=%v τ∞=%v", opts.TauZero, opts.TauInf)
	}
	w, err := stream.NewWindow(opts.WindowSize)
	if err != nil {
		return nil, err
	}
	s := &System{
		opts:    opts,
		top:     top,
		counter: netsim.NewCounter(),
		window:  w,
		state:   make([][]itemState, top.Len()),
		hops:    make([]int, top.Len()),
	}
	for id := range s.state {
		s.state[id] = make([]itemState, opts.WindowSize)
		h, err := top.Hops(top.Root(), netsim.NodeID(id))
		if err != nil {
			return nil, err
		}
		s.hops[id] = h
	}
	return s, nil
}

// Name identifies the protocol in experiment output.
func (s *System) Name() string { return "APS" }

// Messages returns the message counter.
func (s *System) Messages() *netsim.Counter { return s.counter }

// Ready reports whether the source window is full.
func (s *System) Ready() bool { return s.window.Len() == s.window.Cap() }

// OnData consumes a new stream value at the source. For every client and
// every cached item whose new value escaped the interval, a
// value-initiated refresh is sent: the interval re-centers on the new
// value with width enlarged by (1+α), or is dropped past τ∞.
func (s *System) OnData(v float64) {
	s.window.Push(v)
	n := s.window.Len()
	for _, id := range s.top.BFSOrder() {
		if id == s.top.Root() {
			continue
		}
		items := s.state[id]
		for i := 0; i < n; i++ {
			st := &items[i]
			if !st.cached {
				continue
			}
			val := s.window.MustAt(i)
			if val >= st.lo && val <= st.hi {
				continue
			}
			w := st.logW * (1 + s.opts.Alpha)
			if w < s.opts.TauZero {
				w = s.opts.TauZero
			}
			s.counter.Count(MsgRefresh, s.hops[id])
			if w > s.opts.TauInf {
				st.cached = false // effectively (-∞, ∞): drop the copy
				continue
			}
			s.setInterval(st, val, w)
		}
	}
}

// OnQuery processes an inner-product query at a client. The precision
// budget is split evenly across items (tolerance t = δ / Σ|wᵢ|); items
// whose interval is wider than the tolerance trigger a query-initiated
// refresh that shrinks the interval by (1+α).
func (s *System) OnQuery(at netsim.NodeID, q query.Query) (float64, error) {
	if !s.top.Valid(at) {
		return 0, fmt.Errorf("aps: invalid node %d", at)
	}
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if !s.Ready() {
		return 0, fmt.Errorf("aps: source window not full yet")
	}
	if at == s.top.Root() {
		return s.exact(q)
	}
	var wsum float64
	for _, wt := range q.Weights {
		wsum += math.Abs(wt)
	}
	tol := q.Precision
	if wsum > 0 {
		tol = q.Precision / wsum
	}
	var sum float64
	items := s.state[at]
	for i, age := range q.Ages {
		if age < 0 || age >= s.window.Cap() {
			return 0, fmt.Errorf("aps: age %d outside window", age)
		}
		st := &items[age]
		if st.cached && st.width() <= tol {
			sum += q.Weights[i] * (st.lo + st.hi) / 2
			continue
		}
		// Query-initiated refresh.
		s.counter.Count(MsgRequest, s.hops[at])
		s.counter.Count(MsgReply, s.hops[at])
		val := s.window.MustAt(age)
		var w float64
		if st.cached {
			w = st.logW / (1 + s.opts.Alpha)
		} else if s.opts.InitialWidth > 0 {
			w = s.opts.InitialWidth
		} else {
			w = tol
		}
		st.cached = true
		s.setInterval(st, val, w)
		sum += q.Weights[i] * val
	}
	return sum, nil
}

// OnPhaseEnd is a no-op: APS has no phase structure.
func (s *System) OnPhaseEnd() {}

// setInterval centers the interval on val with the given width, applying
// the exact-caching threshold τ₀.
func (s *System) setInterval(st *itemState, val, w float64) {
	st.logW = w
	if w < s.opts.TauZero {
		w = 0 // exact caching
	}
	st.lo = val - w/2
	st.hi = val + w/2
}

// exact answers a query from the source's raw window.
func (s *System) exact(q query.Query) (float64, error) {
	var sum float64
	for i, age := range q.Ages {
		v, err := s.window.At(age)
		if err != nil {
			return 0, err
		}
		sum += q.Weights[i] * v
	}
	return sum, nil
}

// CachedItems returns how many items the client currently caches.
func (s *System) CachedItems(id netsim.NodeID) int {
	if !s.top.Valid(id) || id == s.top.Root() {
		return 0
	}
	n := 0
	for i := range s.state[id] {
		if s.state[id][i].cached {
			n++
		}
	}
	return n
}
