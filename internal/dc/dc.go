// Package dc implements Divergence Caching (Huang, Sloan & Wolfson, PDIS
// 1994) adapted to precision tolerances, exactly as the paper does in
// §4.1: tolerance is the width of the cached interval rather than a
// version count, and the optimal refresh width k is recomputed from a
// window of past read/write events using the adapted expected-cost
// formulas. The algorithm runs independently for each data item in the
// sliding window (§5), with per-client state at the server.
//
//swat:deterministic
package dc

import (
	"fmt"
	"math"

	"github.com/streamsum/swat/internal/netsim"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
)

// Message kinds recorded in the counter.
const (
	MsgRequest = "request" // control message, cost w per hop
	MsgReply   = "reply"   // data message carrying value + refresh width
	MsgRefresh = "refresh" // unsolicited refresh on a write outside the interval
)

// historyWindow is the number of past events used to estimate rates; the
// paper: "The authors in [11] used a window of size 23; we use the same."
const historyWindow = 23

// Options configures a Divergence Caching deployment.
type Options struct {
	// WindowSize is N, the sliding-window size; one cached object per
	// data item.
	WindowSize int
	// ValueLo and ValueHi bound the data values; M tolerance levels
	// discretize this range.
	ValueLo, ValueHi float64
	// Levels is M, the number of discrete tolerance/width levels.
	// 0 means 100.
	Levels int
	// ControlCost is w, the cost of a control message relative to a data
	// message's cost of 1. 0 means 1.
	ControlCost float64
}

// event is one entry of the rate-estimation history.
type event struct {
	time  float64
	write bool
	tol   int // tolerance level for reads
}

// itemState is the per-(client, item) protocol state.
type itemState struct {
	cached bool
	center float64
	k      int // refresh width in levels; k == M means "cache nothing"
	events []event
}

// System is a running Divergence Caching deployment: the source at the
// topology root, every other node a client caching all N items
// independently.
type System struct {
	opts    Options
	top     *netsim.Topology
	counter *netsim.Counter
	window  *stream.Window
	m       int
	w       float64
	unit    float64 // value width of one level
	now     float64
	// state[client][item]; the root entry is unused.
	state [][]itemState
	hops  []int // cached hop distance from each node to the root
}

// New creates a Divergence Caching system over the topology.
func New(top *netsim.Topology, opts Options) (*System, error) {
	if top == nil || top.Len() < 1 {
		return nil, fmt.Errorf("dc: empty topology")
	}
	if opts.WindowSize < 1 {
		return nil, fmt.Errorf("dc: window size %d", opts.WindowSize)
	}
	if opts.ValueHi <= opts.ValueLo {
		return nil, fmt.Errorf("dc: invalid value range [%v,%v]", opts.ValueLo, opts.ValueHi)
	}
	if opts.Levels == 0 {
		opts.Levels = 100
	}
	if opts.Levels < 2 {
		return nil, fmt.Errorf("dc: need at least 2 levels, got %d", opts.Levels)
	}
	if opts.ControlCost == 0 {
		opts.ControlCost = 1
	}
	if opts.ControlCost < 0 {
		return nil, fmt.Errorf("dc: negative control cost %v", opts.ControlCost)
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
		m:       opts.Levels,
		w:       opts.ControlCost,
		unit:    (opts.ValueHi - opts.ValueLo) / float64(opts.Levels),
		state:   make([][]itemState, top.Len()),
		hops:    make([]int, top.Len()),
	}
	for id := range s.state {
		s.state[id] = make([]itemState, opts.WindowSize)
		for i := range s.state[id] {
			s.state[id][i].k = s.m // start uncached
		}
		h, err := top.Hops(top.Root(), netsim.NodeID(id))
		if err != nil {
			return nil, err
		}
		s.hops[id] = h
	}
	return s, nil
}

// Name identifies the protocol in experiment output.
func (s *System) Name() string { return "DC" }

// Messages returns the message counter.
func (s *System) Messages() *netsim.Counter { return s.counter }

// Ready reports whether the source window is full.
func (s *System) Ready() bool { return s.window.Len() == s.window.Cap() }

// Tick advances the protocol clock used for rate estimation; experiments
// call it once per simulated time unit boundary (or pass the simulator
// time directly via SetTime).
func (s *System) SetTime(t float64) {
	if t > s.now {
		s.now = t
	}
}

// tolLevel converts a value-domain tolerance into a discrete level.
func (s *System) tolLevel(tol float64) int {
	l := int(tol / s.unit)
	if l < 0 {
		l = 0
	}
	if l > s.m {
		l = s.m
	}
	return l
}

// widthOf converts a discrete level into a value-domain width.
func (s *System) widthOf(k int) float64 { return float64(k) * s.unit }

// recordEvent appends an event to the per-item history, trimming it to
// the historyWindow most recent entries.
func (st *itemState) recordEvent(e event) {
	st.events = append(st.events, e)
	if len(st.events) > historyWindow {
		st.events = st.events[len(st.events)-historyWindow:]
	}
}

// optimalK evaluates the adapted expected-cost-per-unit-time formulas of
// §4.1 for every k in [0, M] from the event history and returns the
// minimizer:
//
//	k = 0:           λ_w
//	1 <= k <= M-1:   r(k)·(1+w) + (M-k)/M · (λ_w + r(k))
//	k = M:           (w+1) · Σ_t λ_{r_t}
//
// where r(k) = Σ_{t<k} λ_{r_t} is the intensity of relevant reads.
func (s *System) optimalK(st *itemState) int {
	if len(st.events) == 0 {
		return s.m / 2
	}
	span := s.now - st.events[0].time
	if span <= 0 {
		span = 1
	}
	var writes float64
	readsByTol := make([]float64, s.m+1)
	for _, e := range st.events {
		if e.write {
			writes++
		} else {
			readsByTol[e.tol]++
		}
	}
	lambdaW := writes / span
	var totalReads float64
	for _, c := range readsByTol {
		totalReads += c
	}
	lambdaRTotal := totalReads / span

	bestK, bestCost := 0, lambdaW
	// r(k) accumulated incrementally: r(k) = Σ_{t<k} λ_{r_t}.
	rk := 0.0
	for k := 1; k <= s.m-1; k++ {
		rk += readsByTol[k-1] / span
		cost := rk*(1+s.w) + float64(s.m-k)/float64(s.m)*(lambdaW+rk)
		if cost < bestCost {
			bestK, bestCost = k, cost
		}
	}
	if cost := (s.w + 1) * lambdaRTotal; cost < bestCost {
		bestK = s.m
	}
	return bestK
}

// OnData consumes a new stream value at the source. Every item's value
// changes (the window slides); for each client caching an item whose new
// value escaped the cached interval, an unsolicited refresh is sent.
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
			st.recordEvent(event{time: s.now, write: true})
			if !st.cached || st.k >= s.m {
				continue
			}
			val := s.window.MustAt(i)
			half := s.widthOf(st.k) / 2
			if val >= st.center-half && val <= st.center+half {
				continue
			}
			// Unsolicited refresh: transmit the new value with a freshly
			// optimized refresh width.
			st.k = s.optimalK(st)
			if st.k >= s.m {
				st.cached = false
			} else {
				st.center = val
			}
			s.counter.Count(MsgRefresh, s.hops[id])
		}
	}
}

// OnQuery processes an inner-product query at a client: the query's
// precision budget is split evenly over its items (tolerance
// t = δ / Σ|wᵢ|); items whose cached width exceeds the tolerance are
// fetched from the server with a request/reply pair, receiving the exact
// value and a recomputed refresh width.
func (s *System) OnQuery(at netsim.NodeID, q query.Query) (float64, error) {
	if !s.top.Valid(at) {
		return 0, fmt.Errorf("dc: invalid node %d", at)
	}
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if !s.Ready() {
		return 0, fmt.Errorf("dc: source window not full yet")
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
	tolLvl := s.tolLevel(tol)

	var sum float64
	items := s.state[at]
	for i, age := range q.Ages {
		if age < 0 || age >= s.window.Cap() {
			return 0, fmt.Errorf("dc: age %d outside window", age)
		}
		st := &items[age]
		st.recordEvent(event{time: s.now, tol: tolLvl})
		// A read succeeds when its tolerance level is at least the
		// cached refresh width ("we pay for reads with tolerance less
		// than k").
		if st.cached && st.k <= tolLvl {
			sum += q.Weights[i] * st.center
			continue
		}
		// Miss: request to the server, reply with value and new width.
		s.counter.Count(MsgRequest, s.hops[at])
		s.counter.Count(MsgReply, s.hops[at])
		val := s.window.MustAt(age)
		st.k = s.optimalK(st)
		if st.k >= s.m {
			st.cached = false
		} else {
			st.cached = true
			st.center = val
		}
		sum += q.Weights[i] * val
	}
	return sum, nil
}

// OnPhaseEnd is a no-op: Divergence Caching has no phase structure.
func (s *System) OnPhaseEnd() {}

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

// CachedItems returns how many items the client currently caches with a
// finite refresh width, for adaptivity assertions in tests.
func (s *System) CachedItems(id netsim.NodeID) int {
	if !s.top.Valid(id) || id == s.top.Root() {
		return 0
	}
	n := 0
	for i := range s.state[id] {
		if s.state[id][i].cached && s.state[id][i].k < s.m {
			n++
		}
	}
	return n
}
