package cluster

// Scatter-gather reads. Both gathers cost one frame per owner node, not
// a round trip per stream, under a per-node deadline, owners in
// parallel: for point queries each owner gets one spoint naming all of
// its streams; for cluster-wide roll-ups one sfold, and the owner
// combines its own streams and ships back one SWSM summary, so the
// client folds at most one partial per node. Partial failure never
// silently narrows an answer: an unreachable shard degrades to the
// declared range's midpoint with a bound of its half-width (point
// queries) or a core.UnknownSummary stand-in whose taint widens every
// downstream bound (roll-ups), and a gather that loses more than the
// quorum's worth of nodes reports an error instead of an answer.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/wire"
)

// PointAnswer is one stream's bounded point answer.
type PointAnswer struct {
	Stream string
	// Value and Bound: |Value − truth| <= Bound under the declared
	// value range (Bound is 0 for a healthy, merge-free shard).
	Value float64
	Bound float64
	// Arrivals is the owning shard's arrival count for the stream; 0
	// for degraded answers.
	Arrivals int64
	// Node is the owner that answered; "" for degraded answers.
	Node string
	// Degraded marks a stand-in answer (owner unreachable): the
	// declared range's midpoint, bounded by its half-width.
	Degraded bool
	// Err is set when no answer was possible at all — the owner
	// refused (e.g. cold tree) or it is unreachable and no value range
	// is declared to degrade into.
	Err error
}

// degradedAnswer builds the stand-in for an unreachable owner.
func (c *Client) degradedAnswer(stream string, cause error) PointAnswer {
	if !c.mopts.Declared() {
		return PointAnswer{Stream: stream, Err: fmt.Errorf("cluster: owner unreachable and no ValueLo/ValueHi declared to widen into: %w", cause)}
	}
	return PointAnswer{
		Stream:   stream,
		Value:    (c.cfg.ValueLo + c.cfg.ValueHi) / 2,
		Bound:    (c.cfg.ValueHi - c.cfg.ValueLo) / 2,
		Degraded: true,
	}
}

// Point answers a bounded point query for one stream from its owner: a
// one-stream batch on PointAll's path. An unreachable owner degrades to
// the declared range's midpoint and half-width bound rather than
// failing; a reachable owner that refuses (cold tree, unknown stream,
// stale epoch) surfaces its error.
func (c *Client) Point(stream string, age int) PointAnswer {
	p := c.pl.Load()
	var out [1]PointAnswer
	c.pointNode(p, p.nodes[p.ring.Owner(stream)], []string{stream}, []int{0}, age, out[:])
	return out[0]
}

// PointAll scatter-gathers one bounded point query across every
// registered stream: streams group by owner, and each owner answers all
// of its streams in one spoint frame on one pooled connection, owners
// in parallel. Answers return in sorted stream order. Streams on
// unreachable owners come back degraded; the call errors only when
// fewer than a quorum of owners answered.
func (c *Client) PointAll(age int) ([]PointAnswer, error) {
	streams := c.Streams()
	if len(streams) == 0 {
		return nil, nil
	}
	p := c.pl.Load()
	byOwner := make(map[*node][]int)
	for i, s := range streams {
		n := p.nodes[p.ring.Owner(s)]
		byOwner[n] = append(byOwner[n], i)
	}
	out := make([]PointAnswer, len(streams))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		answered int
	)
	for _, addr := range p.order {
		n := p.nodes[addr]
		idxs := byOwner[n]
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.pointNode(p, n, streams, idxs, age, out) {
				mu.Lock()
				answered++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if q := c.quorumOf(len(byOwner)); answered < q {
		return out, fmt.Errorf("cluster: %d of %d owners answered, quorum is %d", answered, len(byOwner), q)
	}
	return out, nil
}

// pointNode answers one owner's slice of a PointAll — streams[i] for
// each i in idxs, into out[i] — reporting whether the node answered.
// Server refusals, per stream or per frame, keep the node answered. A
// transport failure degrades every one of its streams and counts the
// node as unanswered. Nothing lands in out until the whole reply has
// decoded, so pool retries after a failed attempt are safe.
func (c *Client) pointNode(p *placement, n *node, streams []string, idxs []int, age int, out []PointAnswer) bool {
	names := make([]string, len(idxs))
	for k, i := range idxs {
		names[k] = streams[i]
	}
	res := make([]wire.StreamPointResult, len(idxs))
	err := n.pool.Do(func(bc *wire.BinClient) error {
		bc.SetEpoch(p.ring.Epoch())
		bc.SetDeadline(deadline(c.timeout()))
		defer bc.SetDeadline(time.Time{})
		return bc.StreamPoints(names, age, res)
	})
	for k, i := range idxs {
		if err != nil {
			out[i] = c.degradedAnswer(names[k], err)
			continue
		}
		r := res[k] // a refusal carries only Err
		out[i] = PointAnswer{Stream: names[k], Value: r.Value, Bound: r.Bound, Arrivals: r.Arrivals, Node: n.addr, Err: r.Err}
	}
	return err == nil
}

// RollUp is a cluster-wide merged summary: one local tree summarizing
// the sum of every registered stream, with bounds that honestly cover
// whatever the gather could not reach.
type RollUp struct {
	// Tree answers bounded queries over the cluster-wide sum
	// (BoundedPoint, BoundedInnerProduct).
	Tree *core.Tree
	// Streams counts the streams folded in, including stand-ins;
	// registered streams that never shipped a value fold nothing and
	// are not counted.
	Streams int
	// Missing lists streams represented by widened stand-ins (owner
	// unreachable or summary refused), sorted.
	Missing []string
	// NodesOK / NodesTotal count the owners that answered versus all
	// owners.
	NodesOK, NodesTotal int
}

// nodeFold is one owner's share of a roll-up: the request (its streams
// as indices into the sorted stream list, their names and this
// client's sent counts) and, once ok reports a decoded reply, the
// partial summary of the streams it folded (nil when none) and per
// stream the refusal that left it out.
type nodeFold struct {
	idxs    []int
	names   []string
	sent    []int64
	sum     *core.Summary
	refused []error
	ok      bool
}

// RollUp asks every owner to fold its own streams — owners in
// parallel, one sfold frame each on a pooled connection — and folds the
// per-node partials into one tree, so one summary per node crosses the
// network, not one per stream. Owners advance streams lagging this
// client's sent counts with tainted midpoints (multi.Monitor
// .FoldSummary). Unreachable or refused streams fold in last as
// core.UnknownSummary stand-ins sized by the sent count (their taint
// widens the tree's bounds). The fold order is fixed — partials in
// node-address order, each folded by its owner in stream-name order,
// then stand-ins by name — so one fleet state always gives the same
// bytes. The call errors when fewer than a quorum of owners answered,
// or when stand-ins are needed without a declared value range.
func (c *Client) RollUp() (*RollUp, error) {
	streams := c.Streams()
	if len(streams) == 0 {
		return nil, errors.New("cluster: no streams registered")
	}
	p := c.pl.Load()
	sent := make([]int64, len(streams))
	byOwner := make(map[*node]*nodeFold)
	for i, s := range streams {
		sent[i] = c.Sent(s)
		n := p.nodes[p.ring.Owner(s)]
		f := byOwner[n]
		if f == nil {
			f = &nodeFold{}
			byOwner[n] = f
		}
		f.idxs = append(f.idxs, i)
		f.names = append(f.names, s)
		f.sent = append(f.sent, sent[i])
	}
	var wg sync.WaitGroup
	for _, addr := range p.order {
		n := p.nodes[addr]
		if f := byOwner[n]; f != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.foldNode(p, n, f)
			}()
		}
	}
	wg.Wait()

	var (
		acc     *core.Summary
		err     error
		nodesOK int
		folded  = make([]bool, len(streams))
	)
	for _, addr := range p.order {
		f := byOwner[p.nodes[addr]]
		if f == nil || !f.ok {
			continue
		}
		nodesOK++
		for k, i := range f.idxs {
			folded[i] = f.refused[k] == nil
		}
		if f.sum != nil {
			if acc, err = accumulate(acc, f.sum, c.mopts); err != nil {
				return nil, fmt.Errorf("cluster: fold: %w", err)
			}
		}
	}
	if q := c.quorumOf(len(byOwner)); nodesOK < q {
		return nil, fmt.Errorf("cluster: %d of %d owners answered, quorum is %d", nodesOK, len(byOwner), q)
	}

	// Stand-ins for everything the owners could not fold. Streams with a
	// zero sent count contributed nothing, so they need no stand-in and
	// are not missing anything.
	count := 0
	var missing []string
	for i, s := range streams {
		if folded[i] {
			count++
			continue
		}
		if sent[i] == 0 {
			continue
		}
		sum, err := core.UnknownSummary(c.opts, 1, sent[i], c.mopts)
		if err == nil {
			acc, err = accumulate(acc, sum, c.mopts)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: stand-in for %q: %w", s, err)
		}
		missing = append(missing, s)
		count++
	}
	var tr *core.Tree
	if acc == nil {
		tr, err = core.New(c.opts) // nothing folded and nothing sent
	} else {
		tr, err = core.FromSummary(acc)
	}
	if err != nil {
		return nil, err
	}
	return &RollUp{
		Tree:       tr,
		Streams:    count,
		Missing:    missing,
		NodesOK:    nodesOK,
		NodesTotal: len(byOwner),
	}, nil
}

// accumulate is core.Accumulate with a nil accumulator standing for
// the empty fold.
func accumulate(acc, s *core.Summary, o core.MergeOptions) (*core.Summary, error) {
	if acc == nil {
		return s, nil
	}
	return core.Accumulate(acc, s, o)
}

// foldNode runs owner n's sfold round trip for f. Nothing lands in f
// until the whole reply has decoded, so pool retries after a failed
// attempt are safe; a transport failure leaves f.ok false.
func (c *Client) foldNode(p *placement, n *node, f *nodeFold) {
	refused := make([]error, len(f.names))
	var sum *core.Summary
	err := n.pool.Do(func(bc *wire.BinClient) error {
		bc.SetEpoch(p.ring.Epoch())
		bc.SetDeadline(deadline(c.timeout()))
		defer bc.SetDeadline(time.Time{})
		var err error
		sum, err = bc.FoldStreams(c.opts, f.names, f.sent, c.mopts, refused)
		return err
	})
	if err == nil {
		f.sum, f.refused, f.ok = sum, refused, true
	}
}
