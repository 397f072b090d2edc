// Package multi extends SWAT to collections of streams — the direction
// the paper's conclusion names as future work ("possible variations of
// the proposed technique in case of multiple streams ... efficient
// techniques to find correlations over multiple data streams").
//
// A Monitor maintains one k-coefficient SWAT tree per registered stream
// and estimates pairwise Pearson correlations over the most recent m
// values from the trees' reconstructed approximations alone, in the
// spirit of StatStream (Zhu & Shasha, VLDB 2002, reference [17] of the
// paper) but with SWAT's recency-biased summaries instead of per-basic-
// window DFT coefficients.
//
// Streams are sharded across GOMAXPROCS worker goroutines (each shard
// guarded by its own lock), so batched ingest and the pairwise
// correlation scan scale with cores. All Monitor methods are safe for
// concurrent use.
//
//swat:server
package multi

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/durable"
	"github.com/streamsum/swat/internal/query"
)

// Options configures a Monitor.
type Options struct {
	// WindowSize is N, the sliding-window size of every per-stream tree;
	// a power of two >= 4.
	WindowSize int
	// Coefficients is the per-node coefficient budget k of each tree
	// (0 means 4 — correlation estimates need more resolution than the
	// single-average default).
	Coefficients int
	// MinLevel is each tree's reduced-tree cutoff (core.Options.MinLevel):
	// levels below it are dropped and a ring of 2^(MinLevel+1) raw values
	// answers recent point queries exactly. Cluster nodes raise it so
	// scatter-gather probes against fresh ages stay exact.
	MinLevel int
	// Shards is the number of ingest/query shards streams are spread
	// over, each served by its own worker goroutine. 0 means
	// GOMAXPROCS.
	Shards int
	// DataDir, when non-empty, makes every stream durable: each stream
	// gets a WAL+checkpoint store in its own subdirectory, arrivals are
	// logged before they reach the tree, and re-Adding a stream after a
	// restart recovers its summary from disk (see Recovery).
	DataDir string
	// Durable tunes the per-stream stores (checkpoint cadence, fsync
	// policy, segment size). Ignored unless DataDir is set.
	Durable durable.Options
}

// shard owns an interleaved subset of the streams. Its mutex guards the
// trees and arrival counters of exactly those streams; its worker
// goroutine executes the shard's slice of fan-out operations.
type shard struct {
	mu      sync.Mutex
	idx     int   // position in Monitor.shards
	streams []int // indices into Monitor.trees, in registration order
	jobs    chan func()
	// batchBuf gathers one stream's column out of a row batch; reused
	// across ObserveAllBatch calls.
	batchBuf []float64
}

// Monitor tracks many streams and answers correlation queries over
// their summaries. Methods are safe for concurrent use; Close must be
// called when the monitor is no longer needed to stop its shard
// workers.
type Monitor struct {
	opts Options

	// reg guards the registration tables (names/trees/shard membership)
	// against Add and Close; ingest and query paths hold it read-side.
	reg    sync.RWMutex
	names  []string
	byName map[string]int
	trees  []*core.Tree

	// stores and recovered parallel trees when DataDir is set; stores is
	// nil in the purely in-memory mode. A stream's store is guarded by
	// the same shard lock as its tree.
	stores    []*durable.Store
	recovered []durable.RecoveryInfo

	arrived []int64
	shards  []*shard
	closed  bool
	wg      sync.WaitGroup
}

// New creates an empty monitor and starts its shard workers.
func New(opts Options) (*Monitor, error) {
	if opts.Coefficients == 0 {
		opts.Coefficients = 4
	}
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	// Validate eagerly by constructing a probe tree.
	if _, err := core.New(core.Options{WindowSize: opts.WindowSize, Coefficients: opts.Coefficients, MinLevel: opts.MinLevel}); err != nil {
		return nil, err
	}
	m := &Monitor{
		opts:   opts,
		byName: make(map[string]int),
		shards: make([]*shard, opts.Shards),
	}
	for i := range m.shards {
		s := &shard{idx: i, jobs: make(chan func())}
		m.shards[i] = s
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for job := range s.jobs {
				job()
			}
		}()
	}
	return m, nil
}

// Close stops the shard workers and, in durable mode, flushes every
// stream's store (final checkpoint + WAL sync) before returning the
// joined flush errors. The monitor must not be used after Close; Close
// is idempotent.
func (m *Monitor) Close() error {
	m.reg.Lock()
	if m.closed {
		m.reg.Unlock()
		return nil
	}
	m.closed = true
	for _, s := range m.shards {
		close(s.jobs)
	}
	stores := m.stores
	m.reg.Unlock()
	m.wg.Wait()
	var errs []error
	for i, st := range stores {
		if err := st.Close(); err != nil {
			errs = append(errs, fmt.Errorf("stream %q: %w", m.names[i], err))
		}
	}
	return errors.Join(errs...)
}

// shardOf returns the shard owning stream index idx.
func (m *Monitor) shardOf(idx int) *shard {
	return m.shards[idx%len(m.shards)]
}

// Add registers a new stream under a unique name. The empty name is a
// name like any other; wire servers keep their default stream under it.
func (m *Monitor) Add(name string) error {
	m.reg.Lock()
	defer m.reg.Unlock()
	if m.closed {
		return fmt.Errorf("multi: monitor closed")
	}
	if _, dup := m.byName[name]; dup {
		return fmt.Errorf("multi: stream %q already registered", name)
	}
	tree, err := core.New(core.Options{WindowSize: m.opts.WindowSize, Coefficients: m.opts.Coefficients, MinLevel: m.opts.MinLevel})
	if err != nil {
		return err
	}
	var (
		st   *durable.Store
		info durable.RecoveryInfo
	)
	if m.opts.DataDir != "" {
		st, err = durable.Open(filepath.Join(m.opts.DataDir, streamDir(name)), tree, m.opts.Durable)
		if err != nil {
			return fmt.Errorf("multi: stream %q: %w", name, err)
		}
		info = st.Recovery()
	}
	idx := len(m.names)
	m.byName[name] = idx
	m.names = append(m.names, name)
	m.trees = append(m.trees, tree)
	if m.opts.DataDir != "" {
		m.stores = append(m.stores, st)
		m.recovered = append(m.recovered, info)
	}
	m.arrived = append(m.arrived, int64(info.Arrivals))
	s := m.shardOf(idx)
	s.streams = append(s.streams, idx)
	return nil
}

// AddStored registers every stream that has a store under DataDir but
// is not registered yet, recovering each from disk as Add does, and
// returns the names it added in directory order. A restarted durable
// node calls it so its streams answer before their next write. An
// in-memory monitor has nothing stored and adds nothing.
func (m *Monitor) AddStored() ([]string, error) {
	if m.opts.DataDir == "" {
		return nil, nil
	}
	ents, err := os.ReadDir(m.opts.DataDir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("multi: %w", err)
	}
	var added []string
	for _, e := range ents {
		name, ok := streamName(e.Name())
		if !ok || !e.IsDir() {
			continue
		}
		if _, err := m.Ref(name); err == nil {
			continue
		}
		if err := m.Add(name); err != nil {
			return added, err
		}
		added = append(added, name)
	}
	return added, nil
}

// streamName inverts streamDir; ok is false for a directory name
// streamDir never produces.
func streamName(dir string) (name string, ok bool) {
	rest, ok := strings.CutPrefix(dir, "s-")
	if !ok {
		return "", false
	}
	name, err := url.PathUnescape(rest)
	return name, err == nil && streamDir(name) == dir
}

// streamDir maps an arbitrary stream name to a filesystem-safe
// directory name: bytes outside [A-Za-z0-9_-] become %XX, and the "s-"
// prefix keeps names like ".." or ".hidden" from meaning anything to
// the filesystem. The mapping is injective, so distinct streams never
// share a store.
func streamDir(name string) string {
	const hexdigits = "0123456789ABCDEF"
	out := []byte("s-")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
			out = append(out, c)
		default:
			out = append(out, '%', hexdigits[c>>4], hexdigits[c&0xf])
		}
	}
	return string(out)
}

// Recovery reports what the named stream recovered from disk when it
// was Added: the restored arrival count, the snapshot used, how much
// WAL tail was replayed, and whether a damaged tail was truncated. The
// zero RecoveryInfo is returned for streams in a non-durable monitor.
func (m *Monitor) Recovery(name string) (durable.RecoveryInfo, error) {
	m.reg.RLock()
	defer m.reg.RUnlock()
	idx, ok := m.byName[name]
	if !ok {
		return durable.RecoveryInfo{}, fmt.Errorf("multi: unknown stream %q", name)
	}
	if m.stores == nil {
		return durable.RecoveryInfo{}, nil
	}
	return m.recovered[idx], nil
}

// Streams returns the registered stream names in registration order.
func (m *Monitor) Streams() []string {
	m.reg.RLock()
	defer m.reg.RUnlock()
	return append([]string(nil), m.names...)
}

// Len returns the number of registered streams.
func (m *Monitor) Len() int {
	m.reg.RLock()
	defer m.reg.RUnlock()
	return len(m.names)
}

// Observe appends the next value of the named stream.
func (m *Monitor) Observe(name string, v float64) error {
	m.reg.RLock()
	defer m.reg.RUnlock()
	idx, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("multi: unknown stream %q", name)
	}
	s := m.shardOf(idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.stores != nil {
		if err := m.stores[idx].Append1(v); err != nil {
			return fmt.Errorf("multi: stream %q: %w", name, err)
		}
	} else {
		m.trees[idx].Update(v)
	}
	m.arrived[idx]++
	return nil
}

// ObserveBatch appends a run of consecutive values to the named stream
// in one locked pass over its shard, using the tree's batched update.
func (m *Monitor) ObserveBatch(name string, vs []float64) error {
	m.reg.RLock()
	defer m.reg.RUnlock()
	idx, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("multi: unknown stream %q", name)
	}
	s := m.shardOf(idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.ingestLocked(idx, vs)
}

// StreamRef is a pre-resolved handle to one registered stream: the
// name→index lookup (and its error path) is paid once in Ref, so the
// per-batch ingest path is just two lock acquisitions and the tree's
// batched update. Streams are never removed from a monitor, so a ref
// stays valid for the monitor's lifetime. The zero StreamRef is
// invalid; obtain refs from Ref.
type StreamRef struct {
	m   *Monitor
	idx int
}

// Ref resolves a registered stream name to a reusable handle for
// repeated ingest (the line-rate path wire servers and loaders use).
func (m *Monitor) Ref(name string) (StreamRef, error) {
	m.reg.RLock()
	defer m.reg.RUnlock()
	idx, ok := m.byName[name]
	if !ok {
		return StreamRef{}, fmt.Errorf("multi: unknown stream %q", name)
	}
	return StreamRef{m: m, idx: idx}, nil
}

// Name returns the stream's registered name.
func (r StreamRef) Name() string {
	r.m.reg.RLock()
	defer r.m.reg.RUnlock()
	return r.m.names[r.idx]
}

// Observe appends the next value of the referenced stream, skipping
// the per-call name lookup of Monitor.Observe.
//
//swat:noalloc
func (r StreamRef) Observe(v float64) error {
	m := r.m
	m.reg.RLock()
	defer m.reg.RUnlock()
	s := m.shardOf(r.idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.stores != nil {
		if err := m.stores[r.idx].Append1(v); err != nil {
			return fmt.Errorf("multi: stream %q: %w", m.names[r.idx], err)
		}
		m.arrived[r.idx]++
		return nil
	}
	m.trees[r.idx].Update(v)
	m.arrived[r.idx]++
	return nil
}

// ObserveBatch appends a run of consecutive values to the referenced
// stream, like Monitor.ObserveBatch without the name lookup: on the
// in-memory path the batch goes straight into the tree's batched
// update with no allocation.
//
//swat:noalloc
func (r StreamRef) ObserveBatch(vs []float64) error {
	m := r.m
	m.reg.RLock()
	defer m.reg.RUnlock()
	s := m.shardOf(r.idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.ingestLocked(r.idx, vs)
}

// Arrived reports how many values the referenced stream has absorbed.
func (r StreamRef) Arrived() int64 {
	m := r.m
	m.reg.RLock()
	defer m.reg.RUnlock()
	s := m.shardOf(r.idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.arrived[r.idx]
}

// ingestLocked applies one stream's run of values, write-ahead logging
// it first in durable mode. The caller holds the stream's shard lock.
func (m *Monitor) ingestLocked(idx int, vs []float64) error {
	if m.stores != nil {
		if err := m.stores[idx].Append(vs); err != nil {
			return fmt.Errorf("multi: stream %q: %w", m.names[idx], err)
		}
	} else {
		m.trees[idx].UpdateBatch(vs)
	}
	m.arrived[idx] += int64(len(vs))
	return nil
}

// ObserveAll appends one synchronized value per stream, in registration
// order. Values must match the number of registered streams.
func (m *Monitor) ObserveAll(values []float64) error {
	m.reg.RLock()
	defer m.reg.RUnlock()
	if len(values) != len(m.names) {
		return fmt.Errorf("multi: %d values for %d streams", len(values), len(m.names))
	}
	// A single row per stream is too little work to amortize a fan-out;
	// walk the shards inline under their locks.
	var errs []error
	for _, s := range m.shards {
		s.mu.Lock()
		for _, idx := range s.streams {
			if m.stores != nil {
				if err := m.stores[idx].Append1(values[idx]); err != nil {
					errs = append(errs, fmt.Errorf("multi: stream %q: %w", m.names[idx], err))
					continue
				}
			} else {
				m.trees[idx].Update(values[idx])
			}
			m.arrived[idx]++
		}
		s.mu.Unlock()
	}
	return errors.Join(errs...)
}

// ObserveAllBatch appends a sequence of synchronized arrival rows:
// rows[t][i] is the value of stream i (registration order) at batch
// position t. Every row must have one value per registered stream. The
// rows are ingested by the shard workers in parallel, each stream
// consuming its column through the tree's batched update; the call
// returns once every shard has finished, with all streams advanced by
// len(rows) arrivals.
func (m *Monitor) ObserveAllBatch(rows [][]float64) error {
	m.reg.RLock()
	defer m.reg.RUnlock()
	if m.closed {
		return fmt.Errorf("multi: monitor closed")
	}
	for t, row := range rows {
		if len(row) != len(m.names) {
			return fmt.Errorf("multi: row %d has %d values for %d streams", t, len(row), len(m.names))
		}
	}
	if len(rows) == 0 || len(m.names) == 0 {
		return nil
	}
	errs := make([]error, len(m.shards))
	m.fanout(func(s *shard) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, idx := range s.streams {
			col := s.batchBuf[:0]
			for _, row := range rows {
				col = append(col, row[idx])
			}
			s.batchBuf = col
			if err := m.ingestLocked(idx, col); err != nil {
				errs[s.idx] = err
				return
			}
		}
	})
	return errors.Join(errs...)
}

// fanout runs fn once per non-empty shard on the shard workers and
// waits for completion. With a single shard the job runs inline.
// Callers must hold m.reg read-side (workers are alive while it is
// held, since Close takes it write-side).
func (m *Monitor) fanout(fn func(*shard)) {
	if len(m.shards) == 1 {
		fn(m.shards[0])
		return
	}
	var wg sync.WaitGroup
	for _, s := range m.shards {
		if len(s.streams) == 0 {
			continue
		}
		s := s
		wg.Add(1)
		s.jobs <- func() {
			defer wg.Done()
			fn(s)
		}
	}
	wg.Wait()
}

// Ready reports whether the named stream's tree has warmed up.
func (m *Monitor) Ready(name string) bool {
	m.reg.RLock()
	defer m.reg.RUnlock()
	idx, ok := m.byName[name]
	if !ok {
		return false
	}
	s := m.shardOf(idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.trees[idx].Ready()
}

// Answer is one stream's response to a fan-out query.
type Answer struct {
	// Stream is the stream's registered name.
	Stream string
	// Value is the stream's answer; meaningful only when Err is nil.
	Value float64
	// Err reports why the stream could not answer (typically a cold
	// tree, *core.ErrNotCovered).
	Err error
}

// QueryAll evaluates one inner-product query against every registered
// stream, fanning the evaluation across the shard workers in parallel,
// and returns the answers in registration order. Trees synchronize
// reads internally (see core's reader/writer discipline), so QueryAll
// does not take the shard ingest locks: queries proceed concurrently
// with Observe/ObserveBatch/ObserveAllBatch on the same shards.
// Per-stream failures (e.g. a stream that has not warmed up) are
// reported in the answer's Err, not as a call error.
func (m *Monitor) QueryAll(q query.Query) ([]Answer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	m.reg.RLock()
	defer m.reg.RUnlock()
	if m.closed {
		return nil, fmt.Errorf("multi: monitor closed")
	}
	out := make([]Answer, len(m.names))
	if len(out) == 0 {
		return out, nil
	}
	m.fanout(func(s *shard) {
		for _, idx := range s.streams {
			out[idx].Stream = m.names[idx]
			out[idx].Value, out[idx].Err = m.trees[idx].InnerProduct(q.Ages, q.Weights)
		}
	})
	return out, nil
}

// Tree exposes a stream's summary tree for direct queries. The tree
// synchronizes reads and writes internally, so querying it (including
// via compiled plans) is safe concurrently with monitor ingest; do not
// Update it directly, which would bypass the monitor's arrival
// accounting.
func (m *Monitor) Tree(name string) (*core.Tree, error) {
	m.reg.RLock()
	defer m.reg.RUnlock()
	idx, ok := m.byName[name]
	if !ok {
		return nil, fmt.Errorf("multi: unknown stream %q", name)
	}
	return m.trees[idx], nil
}

// approxRecent reconstructs the last span values of stream idx under
// its shard lock.
func (m *Monitor) approxRecent(idx, span int) ([]float64, error) {
	ages := make([]int, span)
	for i := range ages {
		ages[i] = i
	}
	s := m.shardOf(idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.trees[idx].Approximate(ages)
}

// Correlation estimates the Pearson correlation between two streams
// over their most recent span values, computed entirely from the SWAT
// summaries. span must satisfy 2 <= span <= WindowSize.
func (m *Monitor) Correlation(a, b string, span int) (float64, error) {
	m.reg.RLock()
	defer m.reg.RUnlock()
	ia, ok := m.byName[a]
	if !ok {
		return 0, fmt.Errorf("multi: unknown stream %q", a)
	}
	ib, ok := m.byName[b]
	if !ok {
		return 0, fmt.Errorf("multi: unknown stream %q", b)
	}
	if span < 2 || span > m.opts.WindowSize {
		return 0, fmt.Errorf("multi: span %d out of [2,%d]", span, m.opts.WindowSize)
	}
	va, err := m.approxRecent(ia, span)
	if err != nil {
		return 0, fmt.Errorf("multi: stream %q: %w", a, err)
	}
	vb, err := m.approxRecent(ib, span)
	if err != nil {
		return 0, fmt.Errorf("multi: stream %q: %w", b, err)
	}
	return Pearson(va, vb)
}

// Pair is one correlated stream pair.
type Pair struct {
	A, B string
	// R is the estimated Pearson correlation.
	R float64
}

// Correlated returns all stream pairs whose estimated correlation over
// the given span meets |r| >= threshold, strongest first. Streams whose
// summaries are not yet warm are skipped. Both phases run in parallel:
// the shard workers reconstruct their streams' recent values
// concurrently, and the O(S²) pairwise scan is striped across
// GOMAXPROCS goroutines.
func (m *Monitor) Correlated(span int, threshold float64) ([]Pair, error) {
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("multi: threshold %v out of [0,1]", threshold)
	}
	m.reg.RLock()
	// Reconstruct each warm stream once: O(S·span) work total, spread
	// over the shard workers.
	recon := make([][]float64, len(m.names))
	errs := make([]error, len(m.shards))
	m.fanout(func(s *shard) {
		s.mu.Lock()
		defer s.mu.Unlock()
		ages := make([]int, span)
		for i := range ages {
			ages[i] = i
		}
		for _, idx := range s.streams {
			if !m.trees[idx].Ready() {
				continue
			}
			v, err := m.trees[idx].Approximate(ages)
			if err != nil {
				errs[s.idx] = err
				return
			}
			recon[idx] = v
		}
	})
	names := m.names
	m.reg.RUnlock()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := scanPairs(names, recon, threshold)
	sort.Slice(out, func(x, y int) bool {
		ax, ay := math.Abs(out[x].R), math.Abs(out[y].R)
		if ax != ay {
			return ax > ay
		}
		if out[x].A != out[y].A {
			return out[x].A < out[y].A
		}
		return out[x].B < out[y].B
	})
	return out, nil
}

// scanPairs computes the pairwise correlation matrix over the
// reconstructed streams, striping the outer loop across GOMAXPROCS
// goroutines. Pairs with undefined correlation (constant
// reconstruction) are skipped, matching Pearson's error cases.
func scanPairs(names []string, recon [][]float64, threshold float64) []Pair {
	n := len(names)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 32 {
		return scanPairRows(names, recon, threshold, 0, 1)
	}
	parts := make([][]Pair, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = scanPairRows(names, recon, threshold, w, workers)
		}()
	}
	wg.Wait()
	var out []Pair
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// scanPairRows scans rows offset, offset+stride, ... of the upper
// triangle of the correlation matrix.
func scanPairRows(names []string, recon [][]float64, threshold float64, offset, stride int) []Pair {
	var out []Pair
	for i := offset; i < len(names); i += stride {
		if recon[i] == nil {
			continue
		}
		for j := i + 1; j < len(names); j++ {
			if recon[j] == nil {
				continue
			}
			r, err := Pearson(recon[i], recon[j])
			if err != nil {
				continue // constant reconstruction: undefined correlation
			}
			if math.Abs(r) >= threshold {
				out = append(out, Pair{A: names[i], B: names[j], R: r})
			}
		}
	}
	return out
}

// Pearson computes the Pearson correlation coefficient of two
// equal-length vectors. It returns an error for undefined cases
// (length < 2 or zero variance).
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("multi: vectors of lengths %d and %d", len(x), len(y))
	}
	n := float64(len(x))
	if len(x) < 2 {
		return 0, fmt.Errorf("multi: need at least 2 samples")
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0, fmt.Errorf("multi: zero variance")
	}
	return cov / math.Sqrt(vx*vy), nil
}
