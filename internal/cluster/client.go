package cluster

// The coordinator-free cluster client: ring placement + per-node
// connection pools + pipelined stream-addressed ingest. One Client is
// safe for concurrent use; ingest to different nodes proceeds fully in
// parallel, ingest to one node serializes on that node's held feed
// connection (order within a stream must survive).

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/wire"
)

// Config describes a fleet and the summaries it keeps.
type Config struct {
	// Nodes are the wire-v2 swatd addresses; at least one is required.
	Nodes []string

	// WindowSize, Coefficients, MinLevel fix the per-stream tree
	// geometry — every node must run the same (core.Options semantics).
	// The client needs it locally to synthesize stand-in summaries for
	// unreachable shards.
	WindowSize   int
	Coefficients int
	MinLevel     int

	// ValueLo/ValueHi declare the per-value range, required to widen
	// bounds for unreachable shards and skewed merges
	// (core.MergeOptions semantics: both zero means undeclared).
	ValueLo, ValueHi float64

	// Seed fixes ring placement and the pools' retry jitter. Every
	// client of one fleet must use the same seed. Default 1.
	Seed int64
	// VNodes is the virtual-point count per node (default
	// DefaultVNodes).
	VNodes int
	// ConnsPerNode bounds each node pool's idle connections (default
	// 2): one held for pipelined ingest, the rest serving concurrent
	// reads.
	ConnsPerNode int
	// Timeout is the per-node deadline scatter-gather reads arm
	// (default 2s).
	Timeout time.Duration
	// Quorum is how many owner nodes must answer for a gather to
	// succeed (default: a majority of them).
	Quorum int
}

// Batch is one stream's run of consecutive values.
type Batch struct {
	Stream string
	Values []float64
}

// node is one fleet member's connection state.
type node struct {
	addr string
	pool *wire.BinPool

	// mu guards the held ingest connection: stream order must survive,
	// so one writer at a time per node. dirty is set while feed carries
	// framed values no successful ping has yet bounded.
	mu    sync.Mutex
	feed  *wire.BinClient
	dirty bool
}

// placement is one consistent view of the fleet: the ring and the node
// handles it routes to, swapped as a unit. Readers load it once per
// operation so a concurrent Rebalance can never hand them a new ring
// over old pools (or vice versa); node objects are shared between
// consecutive placements for retained members, so held feed connections
// and pool statistics survive a reshard.
type placement struct {
	ring  *Ring
	nodes map[string]*node
	order []string // sorted node addresses, for deterministic walks

	// plan caches how this placement splits the registry for a gather
	// (see Client.plan); a placement swapped in by Rebalance starts
	// without one.
	plan atomic.Pointer[gatherPlan]
}

// Client shards streams across the fleet. Create with New, release
// with Close.
type Client struct {
	cfg   Config
	opts  core.Options
	mopts core.MergeOptions

	// pl is the current placement; Rebalance swaps it atomically at
	// cutover.
	pl atomic.Pointer[placement]

	// regMu guards the stream registry: every stream ever ingested, in
	// registration order (slot maps a name to its index), and how many
	// values were handed to the wire for it (the roll-up stand-in
	// target for shards that stop answering). The registry only grows;
	// sorted and sortedSlots cache the names in sorted order and each
	// one's slot, current while they are as long as names.
	regMu       sync.Mutex
	slot        map[string]int
	names       []string
	sent        []int64
	sorted      []string
	sortedSlots []int

	// migMu serializes Rebalance calls; progress under it is published
	// through mig for Stats. resumePushes, under migMu, is set while the
	// last Rebalance failed mid-handoff: the next one probes every new
	// owner's resume token before pushing.
	migMu        sync.Mutex
	mig          atomic.Pointer[migProgress]
	resumePushes bool
}

// New validates the config and builds the ring and pools. No
// connections are opened until traffic flows.
func New(cfg Config) (*Client, error) {
	opts := core.Options{WindowSize: cfg.WindowSize, Coefficients: cfg.Coefficients, MinLevel: cfg.MinLevel}
	if _, err := core.New(opts); err != nil {
		return nil, fmt.Errorf("cluster: geometry: %w", err)
	}
	mopts := core.MergeOptions{ValueLo: cfg.ValueLo, ValueHi: cfg.ValueHi}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	ring, err := NewRing(seed, cfg.VNodes, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:   cfg,
		opts:  opts,
		mopts: mopts,
		slot:  make(map[string]int),
	}
	p := &placement{ring: ring, nodes: make(map[string]*node, len(cfg.Nodes))}
	for _, a := range ring.Nodes() {
		p.nodes[a] = &node{addr: a, pool: c.newPool(a)}
		p.order = append(p.order, a)
	}
	c.pl.Store(p)
	return c, nil
}

// newPool builds one node's connection pool. Per-pool jitter seeds
// derive from the ring seed and the address, so a fleet of clients
// sharing one config still desynchronizes its retry storms
// deterministically.
func (c *Client) newPool(addr string) *wire.BinPool {
	seed := c.cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &wire.BinPool{
		Addr:    addr,
		MaxIdle: c.cfg.ConnsPerNode,
		Seed:    int64(fnv1aString(seedBasis(seed), addr) | 1),
	}
}

// Ring exposes the current placement ring (e.g. for tests and
// tooling). A concurrent Rebalance may swap it; callers needing one
// consistent view across several lookups hold the returned ring.
func (c *Client) Ring() *Ring { return c.pl.Load().ring }

// Owner returns the node address a stream is placed on.
func (c *Client) Owner(stream string) string { return c.pl.Load().ring.Owner(stream) }

// Streams returns every stream this client has ingested, sorted.
func (c *Client) Streams() []string {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	sorted, _ := c.sortedLocked()
	return append(make([]string, 0, len(sorted)), sorted...)
}

// Sent returns how many values this client has shipped for a stream.
func (c *Client) Sent(stream string) int64 {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	if i, ok := c.slot[stream]; ok {
		return c.sent[i]
	}
	return 0
}

// sortedLocked returns the registered names in sorted order and each
// one's registry slot, sorting again only after a registration. The
// slices are shared and never modified. The caller holds regMu.
func (c *Client) sortedLocked() ([]string, []int) {
	if len(c.sorted) != len(c.names) {
		slots := make([]int, len(c.names))
		for i := range slots {
			slots[i] = i
		}
		slices.SortFunc(slots, func(a, b int) int { return strings.Compare(c.names[a], c.names[b]) })
		sorted := make([]string, len(slots))
		for i, slot := range slots {
			sorted[i] = c.names[slot]
		}
		c.sorted, c.sortedSlots = sorted, slots
	}
	return c.sorted, c.sortedSlots
}

// timeout returns the configured per-node deadline budget.
func (c *Client) timeout() time.Duration {
	if c.cfg.Timeout <= 0 {
		return 2 * time.Second
	}
	return c.cfg.Timeout
}

// deadline arms a socket deadline. The wall clock never reaches
// placement or answers — only I/O budgets.
func deadline(budget time.Duration) time.Time {
	return time.Now().Add(budget) //lint:allow seededrand socket deadlines need the wall clock; placement and answers stay deterministic
}

// quorumOf returns the configured quorum over n summary-capable nodes.
func (c *Client) quorumOf(n int) int {
	if c.cfg.Quorum > 0 {
		if c.cfg.Quorum > n {
			return n
		}
		return c.cfg.Quorum
	}
	return n/2 + 1
}

// ObserveBatch buckets the batches by owner and ships each bucket as
// pipelined stream data frames on its node's held connection, all
// buckets in parallel. Frames are write-buffered: call Sync to bound
// delivery (e.g. before a gather that must see the data). On a
// transport error the node's connection is discarded — the next call
// redials through the pool's backoff — and the error reports which
// streams' batches did not go out; values already framed count as
// sent. Batches for one stream must not be in flight from two
// ObserveBatch calls at once (stream order would be lost); distinct
// streams are safe concurrently.
func (c *Client) ObserveBatch(batches []Batch) error {
	if len(batches) == 0 {
		return nil
	}
	p := c.pl.Load()
	buckets := make(map[*node][]Batch)
	for _, b := range batches {
		if b.Stream == "" {
			return errors.New("cluster: empty stream name")
		}
		if len(b.Values) == 0 {
			continue
		}
		n := p.nodes[p.ring.Owner(b.Stream)]
		buckets[n] = append(buckets[n], b)
	}
	errs := make([]error, 0, len(buckets))
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for _, addr := range p.order {
		n := p.nodes[addr]
		bs := buckets[n]
		if len(bs) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.sendTo(p, n, bs); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ObserveStream ships one stream's batch (ObserveBatch of one).
func (c *Client) ObserveStream(stream string, vs []float64) error {
	return c.ObserveBatch([]Batch{{Stream: stream, Values: vs}})
}

// sendTo writes one node's bucket on its held connection, stamped with
// the placement's ring epoch so the server can refuse the batch if the
// fleet has moved on to a newer ring.
func (c *Client) sendTo(p *placement, n *node, batches []Batch) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.feed == nil {
		feed, err := n.pool.Get()
		if err != nil {
			return fmt.Errorf("cluster: %s: %w", n.addr, err)
		}
		n.feed = feed
	}
	n.feed.SetEpoch(p.ring.Epoch())
	for i, b := range batches {
		if err := n.feed.FeedStream(b.Stream, b.Values); err != nil {
			n.pool.Discard(n.feed)
			n.feed, n.dirty = nil, false
			rest := make([]string, 0, len(batches)-i)
			for _, rb := range batches[i:] {
				rest = append(rest, rb.Stream)
			}
			return fmt.Errorf("cluster: %s: streams %v: %w", n.addr, rest, err)
		}
		n.dirty = true
		c.recordSent(b.Stream, int64(len(b.Values)))
	}
	return nil
}

// recordSent counts nvals values shipped for stream, registering it on
// its first batch.
func (c *Client) recordSent(stream string, nvals int64) {
	c.regMu.Lock()
	i, ok := c.slot[stream]
	if !ok {
		i = len(c.names)
		c.slot[stream] = i
		c.names = append(c.names, stream)
		c.sent = append(c.sent, 0)
	}
	c.sent[i] += nvals
	c.regMu.Unlock()
}

// Sync flushes every held ingest connection that carries values sent
// since its last ping and pings it, bounding delivery of everything
// shipped so far: when Sync returns nil, every prior batch has been
// read by its server (under the block policy, also enqueued). It errs
// only when such a connection fails, so a dead node the client sent
// nothing since the last Sync — an old owner a Rebalance emptied, say —
// is no error; its connection is discarded on its next use.
func (c *Client) Sync() error {
	p := c.pl.Load()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for _, addr := range p.order {
		n := p.nodes[addr]
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.mu.Lock()
			defer n.mu.Unlock()
			if n.feed == nil || !n.dirty {
				return
			}
			n.feed.SetDeadline(deadline(c.timeout()))
			_, err := n.feed.Ping()
			n.feed.SetDeadline(time.Time{})
			n.dirty = false
			if err != nil {
				n.pool.Discard(n.feed)
				n.feed = nil
				mu.Lock()
				errs = append(errs, fmt.Errorf("cluster: %s: sync: %w", n.addr, err))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close releases every connection and pool. The client must not be
// used afterwards.
func (c *Client) Close() error {
	p := c.pl.Load()
	var errs []error
	for _, addr := range p.order {
		n := p.nodes[addr]
		n.mu.Lock()
		if n.feed != nil {
			if err := n.feed.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cluster: %s: %w", n.addr, err))
			}
			n.feed = nil
		}
		n.mu.Unlock()
		if err := n.pool.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: %s: %w", n.addr, err))
		}
	}
	return errors.Join(errs...)
}

// PoolStats reports one node pool's connection churn.
type PoolStats struct {
	Node string
	wire.PoolStats
}

// Pools snapshots every node pool's stats, sorted by address.
func (c *Client) Pools() []PoolStats { return c.pl.Load().pools() }

func (p *placement) pools() []PoolStats {
	out := make([]PoolStats, 0, len(p.order))
	for _, addr := range p.order {
		out = append(out, PoolStats{Node: addr, PoolStats: p.nodes[addr].pool.Stats()})
	}
	return out
}
