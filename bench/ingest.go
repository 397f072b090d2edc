//go:build linux

package main

// Workload ingest-fleet: two generator goroutines, each with its own
// cluster.Client, push named streams into a two-node swatd fleet closed
// loop, as fast as the fleet accepts (saturate). The traced pass adds
// an open loop at a fixed absolute rate (paced), so both commits of a
// comparison carry the same load when ack latency is read; README.md
// says why those latencies carry no bound.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/streamsum/swat/internal/cluster"
	"github.com/streamsum/swat/internal/wire"
)

const (
	ingestGens      = 2  // one per core
	ingestSyncEvery = 16 // saturate: rounds between Sync barriers
	ingestPoolSlots = 8  // 2N arrivals per stream before the pool repeats
	pacedStreams    = 32 // paced: streams per round
	// One paced round per generator every 4.096 ms is 2 M values/s
	// each, 4 M values/s in all: about a quarter of what the fleet
	// saturates at on the two-core box this was sized on.
	pacedEvery   = 4096 * time.Microsecond
	ingestChecks = 32 // streams compared byte for byte with a twin
	phaseSlices  = 10 // every workload: slices a measured phase is cut into
)

type ingestGen struct {
	client  *cluster.Client
	pool    *valuePool
	names   []string
	sent    []int // batches shipped per stream
	scratch []cluster.Batch
}

// round ships the next batch of streams [lo, hi).
func (g *ingestGen) round(r *run, lo, hi int) error {
	bs := g.scratch[:0]
	for k := lo; k < hi; k++ {
		bs = append(bs, cluster.Batch{Stream: g.names[k], Values: g.pool.batch(k, g.sent[k])})
	}
	r.attempted.Add(int64(len(bs)))
	if err := g.client.ObserveBatch(bs); err != nil {
		r.failed.Add(int64(len(bs)))
		return err
	}
	for k := lo; k < hi; k++ {
		g.sent[k]++
	}
	return nil
}

func (g *ingestGen) sync(r *run) error {
	r.attempted.Add(1)
	if err := g.client.Sync(); err != nil {
		r.failed.Add(1)
		return err
	}
	return nil
}

func (g *ingestGen) values() int64 {
	var n int64
	for _, b := range g.sent {
		n += int64(b) * batchLen
	}
	return n
}

type ingestEnv struct {
	nodes []*node
	gens  []*ingestGen
}

// setupIngest starts the fleet and brings every stream to 2N arrivals
// with pools dialled, so no timed sample pays a cold cost.
func setupIngest(cfg runConfig, r *run) (*ingestEnv, error) {
	nodes, err := startFleet(fleetSpec{nodes: 2, geo: fleetGeometry, streams: true, swatd: cfg.swatd, workDir: cfg.workDir})
	if err != nil {
		return nil, err
	}
	env := &ingestEnv{nodes: nodes}
	for id := 0; id < ingestGens; id++ {
		client, err := newClusterClient(fleetGeometry, addrs(nodes))
		if err != nil {
			env.close()
			return nil, err
		}
		g := &ingestGen{
			client: client,
			pool:   newValuePool(cfg.seed*ingestGens+int64(id), ingestPoolSlots, cfg.size.ingestStreams),
			sent:   make([]int, cfg.size.ingestStreams),
		}
		for k := 0; k < cfg.size.ingestStreams; k++ {
			g.names = append(g.names, fmt.Sprintf("ing.g%d.s%03d", id, k))
		}
		env.gens = append(env.gens, g)
		for j := 0; j < 2*fleetGeometry.window/batchLen; j++ {
			if err := g.round(r, 0, len(g.names)); err != nil {
				env.close()
				return nil, err
			}
		}
		if err := g.sync(r); err != nil {
			env.close()
			return nil, err
		}
		for k, name := range g.names {
			if err := awaitStream(client, name, int64(g.sent[k])*batchLen); err != nil {
				env.close()
				return nil, err
			}
		}
	}
	return env, nil
}

func (e *ingestEnv) close() {
	for _, g := range e.gens {
		g.client.Close()
	}
	stopFleet(e.nodes)
}

type saturateResult struct {
	values  int64
	elapsed time.Duration
	cpu     time.Duration
	syncs   samples // Sync barriers
	rounds  samples // ObserveBatch rounds
}

// saturate runs both generators closed loop for d: rounds of every
// stream, a Sync barrier every ingestSyncEvery rounds. Only values
// covered by a returned Sync count as acked.
func (e *ingestEnv) saturate(r *run, d time.Duration, tr *tracer) (saturateResult, error) {
	var (
		res  saturateResult
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	cpu0 := selfCPU() + fleetCPU(e.nodes)
	begin := time.Now()
	deadline := begin.Add(d)
	ends := make([]time.Time, len(e.gens))
	for i, g := range e.gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var syncs, rounds samples
			before := g.values()
			acked := before
			ends[i] = begin
			var err error
			for err == nil && time.Now().Before(deadline) {
				root := tr.begin("gen.round", -1)
				for j := 0; j < ingestSyncEvery && err == nil; j++ {
					sp := tr.begin("cluster.ObserveBatch", root)
					t0 := time.Now()
					err = g.round(r, 0, len(g.names))
					rounds.add(time.Since(t0))
					tr.end(sp)
				}
				if err != nil {
					break
				}
				sp := tr.begin("cluster.Sync", root)
				t0 := time.Now()
				err = g.sync(r)
				syncs.add(time.Since(t0))
				tr.end(sp)
				tr.end(root)
				if err == nil {
					acked, ends[i] = g.values(), time.Now()
				}
			}
			mu.Lock()
			res.values += acked - before
			res.syncs.merge(&syncs)
			res.rounds.merge(&rounds)
			if err != nil {
				errs = append(errs, err)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	end := begin
	for _, t := range ends {
		if t.After(end) {
			end = t
		}
	}
	res.elapsed = end.Sub(begin)
	res.cpu = selfCPU() + fleetCPU(e.nodes) - cpu0
	if len(errs) > 0 {
		return res, errs[0]
	}
	if res.values == 0 {
		return res, fmt.Errorf("bench: saturate phase of %v acked nothing", d)
	}
	return res, nil
}

// paced runs both generators open loop for d: one round of
// pacedStreams streams every pacedEvery, Sync after each, latency from
// the round's due time to the Sync's return.
func (e *ingestEnv) paced(r *run, d time.Duration) (acks, late samples, err error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	begin := time.Now()
	for _, g := range e.gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The paced sender is the client whose latency is read, so
			// it keeps its schedule to the microsecond.
			p := pacer{start: begin, every: pacedEvery, punctual: true}
			var mine samples
			var err error
			for lo := 0; err == nil; lo = (lo + pacedStreams) % len(g.names) {
				due := p.next()
				if due.Sub(begin) >= d {
					break
				}
				hi := lo + pacedStreams
				if hi > len(g.names) {
					hi = len(g.names)
				}
				if err = g.round(r, lo, hi); err == nil {
					err = g.sync(r)
				}
				mine.add(time.Since(due))
			}
			mu.Lock()
			acks.merge(&mine)
			late.merge(&p.late)
			if err != nil {
				errs = append(errs, err)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return acks, late, errs[0]
	}
	return acks, late, nil
}

// check compares the fleet with what was sent: seeded-random streams
// byte for byte against twins fed the same batches, and the nodes'
// ingest counters against the generators' own count.
func (e *ingestEnv) check(cfg runConfig, r *run) (fleetCounters, error) {
	var sent int64
	for _, g := range e.gens {
		if err := g.sync(r); err != nil {
			return fleetCounters{}, err
		}
		sent += g.values()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < ingestChecks; i++ {
		g := e.gens[rng.Intn(len(e.gens))]
		k := rng.Intn(len(g.names))
		name := g.names[k]
		if err := awaitStream(g.client, name, int64(g.sent[k])*batchLen); err != nil {
			return fleetCounters{}, err
		}
		bc, err := wire.DialBinary(g.client.Owner(name))
		if err != nil {
			return fleetCounters{}, err
		}
		sum, err := bc.FetchStreamSummary(name)
		bc.Close()
		if err != nil {
			return fleetCounters{}, err
		}
		if cfg.corrupt && i == 0 {
			sum.Arrivals++
		}
		got, err := summaryBytes(sum)
		if err != nil {
			r.mismatch("%s: fetched summary does not rebuild: %v", name, err)
			continue
		}
		twin := newTree(fleetGeometry)
		for j := 0; j < g.sent[k]; j++ {
			twin.UpdateBatch(g.pool.batch(k, j))
		}
		if !bytes.Equal(got, twin.AppendSummary(nil)) {
			r.mismatch("%s: summary differs from a twin fed the same %d batches", name, g.sent[k])
		}
	}
	return e.checkCounters(r, sent)
}

// fleetCounters sums the nodes' own ingest accounting.
type fleetCounters struct {
	enqueued, busiest, shed, ingestErrors, epochRefusals uint64
}

// checkCounters holds the nodes' accounting against the generators':
// every value sent was enqueued, none was shed or rejected.
func (e *ingestEnv) checkCounters(r *run, sent int64) (fleetCounters, error) {
	var c fleetCounters
	for _, n := range e.nodes {
		st, err := nodeStats(n.addr)
		if err != nil {
			return c, err
		}
		c.enqueued += st.EnqueuedValues
		c.busiest = max(c.busiest, st.EnqueuedValues)
		c.shed += st.ShedValues
		c.ingestErrors += st.IngestErrors
		c.epochRefusals += st.EpochRefusals
	}
	r.failed.Add(int64(c.shed/batchLen) + int64(c.ingestErrors))
	if c.enqueued != uint64(sent) {
		r.mismatch("nodes enqueued %d values, generators sent %d", c.enqueued, sent)
	}
	return c, nil
}

func runIngestFleet(cfg runConfig, r *run) error {
	env, err := setUp(cfg, r, setupIngest)
	if err != nil {
		return err
	}
	defer env.close()

	if cfg.trace {
		return traceIngestFleet(cfg, r, env)
	}
	// Each phase is measured in slices and every metric is the median
	// over its slices, so a burst of interference from outside spoils
	// one slice and not the result.
	var rates, cpus, syncP50s, syncP90s, roundP50s []float64
	var syncs, rounds samples
	for i := 0; i < phaseSlices; i++ {
		sat, err := env.saturate(r, cfg.phase(1)/phaseSlices, nil)
		if err != nil {
			return err
		}
		rates = append(rates, float64(sat.values)/sat.elapsed.Seconds())
		cpus = append(cpus, float64(sat.cpu)/float64(sat.values))
		v := sat.syncs.sorted()
		syncP50s = append(syncP50s, percentile(v, 0.5))
		syncP90s = append(syncP90s, percentile(v, 0.9))
		roundP50s = append(roundP50s, percentile(sat.rounds.sorted(), 0.5))
		syncs.merge(&sat.syncs)
		rounds.merge(&sat.rounds)
	}
	if _, err := env.check(cfg, r); err != nil {
		return err
	}
	stopFleet(env.nodes)

	r.set("rate_per_s", median(rates))
	r.set("cpu_ns_per_unit", median(cpus))
	r.set("op_p50_us", median(syncP50s))
	r.set("op_p90_us", median(syncP90s))
	r.set("aux_p50_ms", median(roundP50s)/1e3)
	r.set("peak_rss_mb", fleetRSS(env.nodes))
	r.timed("saturate_sync_us", &syncs)
	r.timed("saturate_round_us", &rounds)
	return nil
}

func fleetRSS(nodes []*node) float64 {
	var mb float64
	for _, n := range nodes {
		mb += n.rssMB
	}
	return mb
}

// traceIngestFleet is the per-layer pass: the saturate phase untraced
// and traced (their difference is the tracing overhead), the paced
// phase with the nodes' queue counters polled, then the ladder over
// the same generated values.
func traceIngestFleet(cfg runConfig, r *run, env *ingestEnv) error {
	cpu0 := selfCPU()
	poll := startStatsPoller(addrs(env.nodes))
	tr := newTracer()
	overhead, err := traceOverhead(tr, cfg.phase(0.4), func(d time.Duration, tr *tracer) (float64, error) {
		sat, err := env.saturate(r, d, tr)
		return float64(sat.cpu) / float64(sat.values), err
	})
	if err != nil {
		poll.stop()
		return err
	}
	acks, late, err := env.paced(r, cfg.phase(0.2))
	queueMax := poll.stop()
	if err != nil {
		return err
	}
	counters, err := env.check(cfg, r)
	if err != nil {
		return err
	}
	var generated int64
	for _, g := range env.gens {
		setPoolStats(r, g.client)
		generated += int64(g.pool.values())
	}
	genCPU := selfCPU() - cpu0
	stopFleet(env.nodes)

	r.set("trace_overhead_share", overhead)
	r.set("wire.enqueued_values", float64(counters.enqueued))
	r.set("wire.shed_values", float64(counters.shed))
	r.set("wire.ingest_errors", float64(counters.ingestErrors))
	r.set("wire.epoch_refusals", float64(counters.epochRefusals))
	r.set("wire.queue_len_max", float64(queueMax))
	ackUS := acks.sorted()
	r.set("wire.ingest_ack_p50_us", percentile(ackUS, 0.5))
	r.set("wire.ingest_ack_p90_us", percentile(ackUS, 0.9))
	r.set("wire.ingest_ack_p99_us", percentile(ackUS, 0.99))
	r.timed("ingest_ack_us", &acks)
	// The busiest node's share of the load: the balance signal.
	r.set("cluster.max_share", 100*float64(counters.busiest)/float64(counters.enqueued))
	r.set("gen.cpu_s", genCPU.Seconds())
	r.set("gen.lateness_p99_us", percentile(late.sorted(), 0.99))
	r.set("gen.values_generated", float64(generated))
	setSwatdStats(r, env.nodes)

	pool := env.gens[0].pool
	l := ladder{r: r, tr: tr, budget: cfg.phase(0.4) / 8}
	l.wavelet(pool)
	update := l.coreUpdate(pool)
	observe, err := l.multiObserve(pool)
	if err != nil {
		return err
	}
	l.codec(pool)
	feed, err := l.wireFeed(pool)
	if err != nil {
		return err
	}
	if err := l.wirePing(); err != nil {
		return err
	}
	n1, err := l.clusterObserve(pool, 1)
	if err != nil {
		return err
	}
	if _, err := l.clusterObserve(pool, 2); err != nil {
		return err
	}
	if err := l.ringOwner(env.gens[0].names); err != nil {
		return err
	}
	r.set("multi.self_ns_per_value", observe-update)
	r.set("wire.self_ns_per_value", feed-observe)
	r.set("cluster.self_ns_per_value", n1-feed)
	// The rungs telescope: core + Σ self is the one-node cluster rung,
	// to be read against the fleet's measured CPU per value.
	r.set("ladder.self_sum_ns_per_value", n1)
	return tr.write(cfg.tracePath())
}
