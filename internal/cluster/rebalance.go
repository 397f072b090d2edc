package cluster

// Live resharding: move a fleet from one ring to the next without
// losing a value or lying about one. The driver is deliberately
// sequential and client-mediated — no server talks to another server,
// so the protocol stays two-party and every failure mode is a failure
// of one connection the driver already knows how to retry.
//
// The state machine per moved stream is drain → export → install →
// commit; only after every move committed does the epoch flip, in two
// steps: fence every node in the union of the old and new memberships
// forward to the new epoch (so old owners refuse stale writers even if
// they never see new-epoch traffic), then swap the client's placement
// atomically. Nothing earlier mutates the old placement, so any error
// before the flip aborts with the old ring still fully authoritative:
// summaries already installed on new owners are inert (no reads or
// writes route to them under the old ring) and are either reused by a
// retried migration (the commit is idempotent under the transfer's
// identity) or left to be garbage.
//
// Transfers are chunked, checksummed, and resumable end to end: a cut
// during export resumes from the assembly's contiguous prefix under a
// CRC fence, a cut during install probes the new owner's resume token
// before writing, so completed chunks are never re-sent in either
// direction (see core/transfer.go and wire/migrate.go).
//
// Values raced into an old owner between its export and its fence are
// not transferred; they remain counted in this client's sent registry,
// so roll-ups advance the new owner's summary with tainted midpoints
// that cover exactly that gap — the never-lying degradation the rest
// of the system already provides. Callers who cannot tolerate even
// that taint quiesce ingest to moved streams around the Rebalance (the
// netsim migration harness buffers client-side and replays after the
// flip).

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/wire"
)

// Rebalance chunk-size bounds, mirroring the wire server's clamp.
const (
	defaultChunkBytes = 64 << 10
	maxChunkBytes     = 256 << 10
)

// RebalanceOptions tunes one Rebalance call.
type RebalanceOptions struct {
	// Timeout caps each per-node operation — the drain ping, one
	// stream's export or install (dial, backoff, and every chunk round
	// trip included), and each fence — so a dead node fails the
	// migration fast instead of parking in the pools' full retry
	// schedule. Default: the client's configured Timeout.
	Timeout time.Duration
	// AllowCold lets the migration proceed when a moved stream's old
	// owner cannot export (crashed, unreachable, or restarted without
	// the stream): the stream starts cold on its new owner and the
	// client's sent registry keeps roll-up bounds honest about the
	// missing history. Without it any export failure aborts the
	// migration with the old ring intact.
	AllowCold bool
	// ChunkBytes bounds each transfer chunk (default 64KiB, clamped to
	// 256KiB so a chunk frame never approaches the wire's frame cap).
	ChunkBytes int
}

// Move records one stream's handoff.
type Move struct {
	Stream   string
	From, To string
	// Bytes is the summary encoding's size; Chunks counts the chunk
	// round trips the export took (more than ⌈Bytes/chunk⌉ means the
	// transfer was cut and resumed).
	Bytes  int64
	Chunks int
	// Cold marks a stream whose old owner could not export
	// (RebalanceOptions.AllowCold); nothing was installed.
	Cold bool
}

// MigrationReport is the outcome of a completed Rebalance.
type MigrationReport struct {
	FromEpoch, ToEpoch uint64
	// Moves lists every stream whose owner changed, sorted by stream.
	Moves []Move
	// Unfenced lists nodes the cutover broadcast could not reach —
	// past the point of no return the flip proceeds, and these nodes
	// adopt the epoch from the first new-epoch frame they see instead.
	// Until then an unversioned (epoch-0) writer aimed at one of them
	// would not be refused.
	Unfenced []string
}

// migProgress is a Rebalance's published mid-flight state (see Stats).
type migProgress struct {
	from, to     uint64
	moved, total int
	current      string
}

// Stats is a snapshot of the client's placement and migration state.
type Stats struct {
	// Epoch and Nodes describe the current ring.
	Epoch uint64
	Nodes []string
	// Migrating is set while a Rebalance is in flight; the remaining
	// fields then describe it.
	Migrating          bool
	FromEpoch, ToEpoch uint64
	// MovedStreams of TotalMoves streams have been handed off so far;
	// CurrentStream is the one in flight.
	MovedStreams, TotalMoves int
	CurrentStream            string
	// Pools is the per-node connection churn, sorted by address.
	Pools []PoolStats
}

// Stats snapshots the client's ring epoch, per-node pool churn, and —
// while a Rebalance is in flight — the migration's progress.
func (c *Client) Stats() Stats {
	p := c.pl.Load()
	st := Stats{Epoch: p.ring.Epoch(), Nodes: p.ring.Nodes(), Pools: p.pools()}
	if m := c.mig.Load(); m != nil {
		st.Migrating = true
		st.FromEpoch, st.ToEpoch = m.from, m.to
		st.MovedStreams, st.TotalMoves = m.moved, m.total
		st.CurrentStream = m.current
	}
	return st
}

// rebalanceTimeout returns the per-node operation budget.
func (c *Client) rebalanceTimeout(opts RebalanceOptions) time.Duration {
	if opts.Timeout > 0 {
		return opts.Timeout
	}
	return c.timeout()
}

// chunkBytes returns the clamped transfer chunk size.
func chunkBytes(opts RebalanceOptions) int {
	switch {
	case opts.ChunkBytes <= 0:
		return defaultChunkBytes
	case opts.ChunkBytes > maxChunkBytes:
		return maxChunkBytes
	default:
		return opts.ChunkBytes
	}
}

// Rebalance moves the client from its current ring to newRing: drain,
// per-moved-stream summary handoff, epoch fence broadcast, placement
// flip, in that order. newRing must extend the current ring's lineage —
// same seed and vnodes, strictly newer epoch (derive it with
// Ring.WithNode / Ring.WithoutNode). On error nothing has flipped and
// the old ring remains fully authoritative. Rebalance serializes with
// itself; ingest for streams that change owners must be quiesced around
// the call (concurrent ingest to unmoved streams and concurrent reads
// are safe — reads during the migration window answer from the old
// placement with honest bounds).
func (c *Client) Rebalance(newRing *Ring, opts RebalanceOptions) (*MigrationReport, error) {
	c.migMu.Lock()
	defer c.migMu.Unlock()
	defer c.mig.Store(nil)

	p := c.pl.Load()
	old := p.ring
	if newRing == nil {
		return nil, errors.New("cluster: nil target ring")
	}
	if newRing.Seed() != old.Seed() || newRing.VNodes() != old.VNodes() {
		return nil, fmt.Errorf("cluster: target ring geometry (seed %d, %d vnodes) does not match current (seed %d, %d vnodes)",
			newRing.Seed(), newRing.VNodes(), old.Seed(), old.VNodes())
	}
	if newRing.Epoch() <= old.Epoch() {
		return nil, fmt.Errorf("cluster: target ring epoch %d is not ahead of current epoch %d", newRing.Epoch(), old.Epoch())
	}

	// Build the new placement's nodes up front: installs push into
	// added members before anything flips, and a dead new owner must
	// fail the migration here — cheaply — not strand it half-cut-over.
	newNodes := make(map[string]*node, newRing.Len())
	newOrder := newRing.Nodes()
	var added []*node
	for _, a := range newOrder {
		if n, ok := p.nodes[a]; ok {
			newNodes[a] = n
			continue
		}
		n := &node{addr: a, pool: c.newPool(a)}
		newNodes[a] = n
		added = append(added, n)
	}
	abort := func(err error) (*MigrationReport, error) {
		for _, n := range added {
			n.pool.Close()
		}
		return nil, err
	}

	// The move set: every registered stream whose owner changes.
	var moves []Move
	for _, s := range c.Streams() { // sorted
		from, to := old.Owner(s), newRing.Owner(s)
		if from != to {
			moves = append(moves, Move{Stream: s, From: from, To: to})
		}
	}
	progress := func(moved int, current string) {
		c.mig.Store(&migProgress{from: old.Epoch(), to: newRing.Epoch(), moved: moved, total: len(moves), current: current})
	}
	progress(0, "")

	// Drain: bound delivery of every batch shipped so far, so the old
	// owners' exports cover them. With AllowCold a failed drain only
	// dooms the unreachable owner's streams to cold handoff.
	if len(moves) > 0 {
		if err := c.Sync(); err != nil && !opts.AllowCold {
			return abort(fmt.Errorf("cluster: drain before reshard: %w", err))
		}
	}

	report := &MigrationReport{FromEpoch: old.Epoch(), ToEpoch: newRing.Epoch()}
	for i := range moves {
		mv := &moves[i]
		progress(i, mv.Stream)
		if err := c.moveStream(p, newNodes, mv, newRing.Epoch(), opts); err != nil {
			return abort(err)
		}
	}
	progress(len(moves), "")
	report.Moves = moves

	// Cutover, step one: fence every member of either ring forward.
	// Servers also adopt newer epochs from the first stamped frame they
	// see, so a fence miss is self-healing for nodes that still receive
	// traffic; the broadcast exists for the ones that won't — an old
	// owner that just lost its last stream must still refuse a stale
	// writer. Fence failures are reported, not fatal: every transfer
	// has committed, so the flip is the only state left to move.
	fenceSet := make(map[string]*node, len(p.order)+len(added))
	for _, a := range p.order {
		fenceSet[a] = p.nodes[a]
	}
	for _, a := range newOrder {
		fenceSet[a] = newNodes[a]
	}
	fenceOrder := make([]string, 0, len(fenceSet))
	for a := range fenceSet {
		fenceOrder = append(fenceOrder, a)
	}
	sort.Strings(fenceOrder)
	budget := c.rebalanceTimeout(opts)
	for _, a := range fenceOrder {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		err := fenceSet[a].pool.DoCtx(ctx, func(bc *wire.BinClient) error {
			bc.SetDeadline(deadline(budget))
			defer bc.SetDeadline(time.Time{})
			_, e := bc.SetRingEpoch(newRing.Epoch())
			return e
		})
		cancel()
		if err != nil {
			report.Unfenced = append(report.Unfenced, a)
		}
	}

	// Cutover, step two: flip the client. Every operation from here on
	// routes and stamps by the new ring.
	c.pl.Store(&placement{ring: newRing, nodes: newNodes, order: newOrder})

	// Retire removed members, best-effort: a member is usually removed
	// because it is being decommissioned (or is already dead), so close
	// errors carry no signal the report doesn't.
	for _, a := range p.order {
		if _, kept := newNodes[a]; kept {
			continue
		}
		n := p.nodes[a]
		n.mu.Lock()
		if n.feed != nil {
			n.feed.Close()
			n.feed = nil
		}
		n.mu.Unlock()
		n.pool.Close()
	}
	return report, nil
}

// moveStream hands one stream off: pull the old owner's summary chunk
// by chunk into a checksummed assembly, push it to the new owner under
// its resume token, commit. Both legs run under the per-op budget with
// pool dial time context-capped, and both resume across transport cuts
// without re-sending completed chunks.
func (c *Client) moveStream(p *placement, newNodes map[string]*node, mv *Move, toEpoch uint64, opts RebalanceOptions) error {
	budget := c.rebalanceTimeout(opts)
	chunk := chunkBytes(opts)
	src, dst := p.nodes[mv.From], newNodes[mv.To]

	// Pull. The assembly outlives pool retries: a fresh connection
	// resumes at Have, fenced by the CRC — if the source's snapshot
	// changed it restarts the reply at offset zero with its new
	// identity and the assembly is reopened to match.
	var asm *core.SummaryAssembly
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	err := src.pool.DoCtx(ctx, func(bc *wire.BinClient) error {
		bc.SetDeadline(deadline(budget))
		defer bc.SetDeadline(time.Time{})
		for {
			var off int64
			var crc uint32
			if asm != nil {
				off, crc = asm.Have(), asm.CRC()
			}
			ch, err := bc.MigRead(mv.Stream, off, crc, chunk)
			if err != nil {
				return err
			}
			if asm == nil || !asm.Matches(ch.Total, ch.CRC) {
				if ch.Offset != 0 {
					return fmt.Errorf("cluster: %s: export of %q switched identity at offset %d", mv.From, mv.Stream, ch.Offset)
				}
				if asm, err = core.NewSummaryAssembly(ch.Total, ch.CRC); err != nil {
					return fmt.Errorf("cluster: %s: export of %q: %w", mv.From, mv.Stream, err)
				}
			}
			if err := asm.Append(ch.Offset, ch.Data); err != nil {
				return fmt.Errorf("cluster: %s: export of %q: %w", mv.From, mv.Stream, err)
			}
			mv.Chunks++
			if asm.Complete() {
				return nil
			}
		}
	})
	cancel()
	if err != nil {
		if opts.AllowCold {
			mv.Cold = true
			return nil
		}
		return fmt.Errorf("cluster: export %q from %s: %w", mv.Stream, mv.From, err)
	}
	xfer, err := asm.Transfer()
	if err != nil {
		return fmt.Errorf("cluster: export %q from %s: %w", mv.Stream, mv.From, err)
	}
	mv.Bytes = xfer.Len()

	// Push, then commit, on the new owner. The opening empty write is a
	// probe-with-identity: its reply's Have is the server's resume
	// token, so a push resumed after a cut (or a whole retried
	// migration) starts exactly where the server left off and never
	// re-sends an applied byte. The commit carries the migration's
	// target epoch; a server already past it refuses, which keeps a
	// stalled driver's late installs out of post-cutover state.
	ctx, cancel = context.WithTimeout(context.Background(), budget)
	err = dst.pool.DoCtx(ctx, func(bc *wire.BinClient) error {
		bc.SetDeadline(deadline(budget))
		defer bc.SetDeadline(time.Time{})
		total, crc := xfer.Len(), xfer.CRC()
		st, err := bc.MigWrite(mv.Stream, 0, total, crc, nil)
		if err != nil {
			return err
		}
		for !st.Committed && st.Have < total {
			data, err := xfer.Chunk(st.Have, chunk)
			if err != nil {
				return err
			}
			if st, err = bc.MigWrite(mv.Stream, st.Have, total, crc, data); err != nil {
				return err
			}
		}
		if st, err = bc.MigCommit(mv.Stream, total, crc, toEpoch); err != nil {
			return err
		}
		if !st.Committed {
			return fmt.Errorf("cluster: %s: commit of %q not acknowledged", mv.To, mv.Stream)
		}
		return nil
	})
	cancel()
	if err != nil {
		return fmt.Errorf("cluster: install %q on %s: %w", mv.Stream, mv.To, err)
	}
	return nil
}
