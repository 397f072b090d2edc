package cluster

// Scatter-gather reads. Point queries cost one frame per owner node,
// not a round trip per stream: each owner gets one spoint naming all of
// its streams, under a per-node deadline, owners in parallel.
// Cluster-wide roll-ups fetch per-stream SWSM summaries and fold them
// into one local tree as responses arrive. Partial failure never
// silently narrows an answer: an unreachable shard degrades to the
// declared range's midpoint with a bound of its half-width (point
// queries) or a core.UnknownSummary stand-in whose taint widens every
// downstream bound (roll-ups), and a gather that loses more than the
// quorum's worth of nodes reports an error instead of an answer.

import (
	"errors"
	"fmt"
	"sort"
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

// fetched is one stream summary in flight from a gather goroutine to
// the folding loop.
type fetched struct {
	stream string
	sum    *core.Summary
}

// RollUp fetches every registered stream's summary from its owner —
// owners in parallel, one pooled connection each — and folds them into
// one tree as they arrive, so peak memory holds one summary per node,
// not one per stream. Unreachable or refused streams fold in as
// core.UnknownSummary stand-ins sized by this client's sent count
// (their taint widens the tree's bounds); the call errors when fewer
// than a quorum of owners answered, or when stand-ins are needed
// without a declared value range.
func (c *Client) RollUp() (*RollUp, error) {
	streams := c.Streams()
	if len(streams) == 0 {
		return nil, errors.New("cluster: no streams registered")
	}
	p := c.pl.Load()
	byOwner := make(map[*node][]string)
	for _, s := range streams {
		n := p.nodes[p.ring.Owner(s)]
		byOwner[n] = append(byOwner[n], s)
	}
	results := make(chan fetched)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		nodesOK int
	)
	for _, addr := range p.order {
		n := p.nodes[addr]
		names := byOwner[n]
		if len(names) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.fetchNode(p, n, names, results) {
				mu.Lock()
				nodesOK++
				mu.Unlock()
			}
		}()
	}
	go func() { wg.Wait(); close(results) }()

	// Fold as summaries arrive. The merge algebra is bit-commutative
	// pairwise but the fold shape still follows arrival order; callers
	// needing bit-identical roll-ups across runs fold sorted summaries
	// themselves (the netsim harness does).
	var (
		tr      *core.Tree
		got     = make(map[string]bool, len(streams))
		folded  int
		foldErr error
	)
	for f := range results {
		got[f.stream] = true
		if foldErr != nil {
			continue // drain
		}
		// A summary lagging the count we shipped means the shard lost
		// arrivals (healed partition, shed batches): advance it with
		// tainted midpoints so the merged bounds admit the gap instead
		// of silently under-counting.
		if target := c.Sent(f.stream); f.sum.Arrivals < target {
			f.sum, foldErr = core.AdvanceSummary(f.sum, target, c.mopts)
			if foldErr != nil {
				continue
			}
		}
		if tr == nil {
			tr, foldErr = core.FromSummary(f.sum)
		} else {
			foldErr = tr.MergeSummary(f.sum, c.mopts)
		}
		if foldErr == nil {
			folded++
		}
	}
	if foldErr != nil {
		return nil, fmt.Errorf("cluster: fold: %w", foldErr)
	}
	if q := c.quorumOf(len(byOwner)); nodesOK < q {
		return nil, fmt.Errorf("cluster: %d of %d owners answered, quorum is %d", nodesOK, len(byOwner), q)
	}

	// Stand-ins for everything the gather could not produce, in sorted
	// order for determinism. Streams with a zero sent count contributed
	// nothing, so they need no stand-in and are not missing anything.
	var missing []string
	for _, s := range streams {
		if !got[s] && c.Sent(s) > 0 {
			missing = append(missing, s)
		}
	}
	for _, s := range missing {
		target := c.Sent(s)
		sum, err := core.UnknownSummary(c.opts, 1, target, c.mopts)
		if err != nil {
			return nil, fmt.Errorf("cluster: stand-in for %q: %w", s, err)
		}
		if tr == nil {
			tr, err = core.FromSummary(sum)
		} else {
			err = tr.MergeSummary(sum, c.mopts)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: stand-in for %q: %w", s, err)
		}
		folded++
	}
	if tr == nil {
		// Everything missing with zero sent counts: an empty cluster.
		var err error
		if tr, err = core.New(c.opts); err != nil {
			return nil, err
		}
	}
	sort.Strings(missing)
	return &RollUp{
		Tree:       tr,
		Streams:    folded,
		Missing:    missing,
		NodesOK:    nodesOK,
		NodesTotal: len(byOwner),
	}, nil
}

// fetchNode fetches one owner's summaries on one pooled connection,
// sending each to the folding loop as it lands. Reports whether the
// node answered (at least reachably; per-stream refusals and a partial
// delivery don't count against it).
func (c *Client) fetchNode(p *placement, n *node, names []string, results chan<- fetched) bool {
	err := n.pool.Do(func(bc *wire.BinClient) error {
		bc.SetEpoch(p.ring.Epoch())
		bc.SetDeadline(deadline(c.timeout()))
		defer bc.SetDeadline(time.Time{})
		for k, s := range names {
			sum, e := bc.FetchStreamSummary(s)
			if e != nil {
				var remote *wire.RemoteError
				if errors.As(e, &remote) {
					continue // this stream becomes a stand-in
				}
				if k > 0 {
					// Partial: delivered streams stand, the rest become
					// stand-ins; no retry (summaries would duplicate) and
					// no reuse of a connection with an abandoned reply.
					return fmt.Errorf("%w: %w", wire.ErrDiscardConn, e)
				}
				return e
			}
			results <- fetched{stream: s, sum: sum}
		}
		return nil
	})
	return err == nil || errors.Is(err, wire.ErrDiscardConn)
}
