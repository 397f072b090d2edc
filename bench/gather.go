//go:build linux

package main

// Workload gather-reshard: thousands of warm streams on a three-node
// fleet and no ingest. One closed-loop client gathers (PointAll and
// RollUp), then reshards onto and off a fourth node. Summary decode,
// merge and install do the work here; tree update does none.

import (
	"fmt"
	"math"
	"time"

	"github.com/streamsum/swat/internal/cluster"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/stream"
)

// Each reshard cycle first appends topUpLen values to every stream:
// the servers answer a handoff whose bytes they already hold from an
// earlier cycle without installing it, so an unchanged fleet would
// time that shortcut from the second cycle on.
const topUpLen = 16

type gatherEnv struct {
	nodes   []*node // the last one is the spare the reshard phase adds
	client  *cluster.Client
	names   []string
	srcs    []stream.Source
	twins   []*core.Tree
	twinSum *core.Tree
	scratch []float64

	firstPointAllMS, firstRollUpMS float64
}

func setupGather(cfg runConfig, r *run) (*gatherEnv, error) {
	nodes, err := startFleet(fleetSpec{nodes: 4, geo: fleetGeometry, streams: true, swatd: cfg.swatd, workDir: cfg.workDir})
	if err != nil {
		return nil, err
	}
	env := &gatherEnv{nodes: nodes, twinSum: newTree(fleetGeometry)}
	if env.client, err = newClusterClient(fleetGeometry, addrs(nodes[:3])); err != nil {
		env.close()
		return nil, err
	}
	for k := 0; k < cfg.size.gatherStreams; k++ {
		env.names = append(env.names, fmt.Sprintf("gat.s%04d", k))
		env.srcs = append(env.srcs, stream.Uniform(streamSeed(cfg.seed, k)))
		env.twins = append(env.twins, newTree(fleetGeometry))
	}
	for j := 0; j < 2*fleetGeometry.window/batchLen; j++ {
		if err := env.append(r, batchLen); err != nil {
			env.close()
			return nil, err
		}
	}
	// One cold gather of each kind before any timed sample; they are
	// reported on their own and never mixed into the medians.
	first, err := env.pointAll(r, 0, false)
	if err != nil {
		env.close()
		return nil, err
	}
	env.firstPointAllMS = float64(first) / 1e6
	if first, err = env.rollUp(r); err != nil {
		env.close()
		return nil, err
	}
	env.firstRollUpMS = float64(first) / 1e6
	return env, nil
}

func (e *gatherEnv) close() {
	if e.client != nil {
		e.client.Close()
	}
	stopFleet(e.nodes)
}

// append ships n more values of every stream, feeds the twins the same
// values, and returns once every node has applied its share.
func (e *gatherEnv) append(r *run, n int) error {
	if cap(e.scratch) < len(e.names)*n {
		e.scratch = make([]float64, len(e.names)*n)
	}
	sums := make([]float64, n)
	batches := make([]cluster.Batch, len(e.names))
	for k, name := range e.names {
		vs := e.scratch[k*n : (k+1)*n]
		for i := range vs {
			vs[i] = e.srcs[k].Next()
			sums[i] += vs[i]
		}
		e.twins[k].UpdateBatch(vs)
		batches[k] = cluster.Batch{Stream: name, Values: vs}
	}
	e.twinSum.UpdateBatch(sums)
	r.attempted.Add(int64(len(batches)))
	if err := e.client.ObserveBatch(batches); err != nil {
		r.failed.Add(int64(len(batches)))
		return err
	}
	if err := e.client.Sync(); err != nil {
		return err
	}
	// The last stream shipped to each node covers the ones before it.
	last := make(map[string]int)
	for k, name := range e.names {
		last[e.client.Owner(name)] = k
	}
	for _, k := range last {
		if err := awaitStream(e.client, e.names[k], e.twins[k].Arrivals()); err != nil {
			return err
		}
	}
	return nil
}

// pointAll gathers one age from every stream, returns how long the
// gather took, and then checks each answer against its
// twin: a healthy fleet answers exactly what a fault-free tree fed the
// same values answers, with bound 0.
func (e *gatherEnv) pointAll(r *run, age int, corrupt bool) (time.Duration, error) {
	r.attempted.Add(1)
	t0 := time.Now()
	answers, err := e.client.PointAll(age)
	took := time.Since(t0)
	if err != nil {
		r.failed.Add(1)
		return took, err
	}
	if len(answers) != len(e.names) {
		r.mismatch("PointAll(%d) returned %d answers for %d streams", age, len(answers), len(e.names))
		return took, nil
	}
	if corrupt {
		answers[0].Value++
	}
	for k, a := range answers { // names are generated in sorted order
		if a.Err != nil || a.Degraded {
			r.failed.Add(1)
			continue
		}
		want, _, err := e.twins[k].BoundedPoint(age)
		if err != nil {
			return took, err
		}
		if a.Stream != e.names[k] || math.Abs(a.Value-want) > a.Bound || a.Bound != 0 {
			r.mismatch("PointAll(%d) %s: %v±%v, twin %v", age, a.Stream, a.Value, a.Bound, want)
		}
	}
	return took, nil
}

// rollUp folds every stream's summary, returns how long the fold took,
// and then checks it against a twin fed the
// per-arrival sums. The fold adds coefficients in arrival order of the
// replies, the twin in stream order, so equality is up to float
// rounding of a sum of len(names) terms.
func (e *gatherEnv) rollUp(r *run) (time.Duration, error) {
	r.attempted.Add(1)
	t0 := time.Now()
	ru, err := e.client.RollUp()
	took := time.Since(t0)
	if err != nil {
		r.failed.Add(1)
		return took, err
	}
	if ru.Streams != len(e.names) || len(ru.Missing) != 0 {
		r.mismatch("RollUp folded %d of %d streams, %d missing", ru.Streams, len(e.names), len(ru.Missing))
		return took, nil
	}
	for _, age := range []int{0, 1, 17, fleetGeometry.window / 2, fleetGeometry.window - 1} {
		got, bound, err := ru.Tree.BoundedPoint(age)
		if err != nil {
			return took, err
		}
		want, _, err := e.twinSum.BoundedPoint(age)
		if err != nil {
			return took, err
		}
		if bound != 0 || math.Abs(got-want) > 1e-9*math.Abs(want) {
			r.mismatch("RollUp age %d: %v±%v, twin fold %v", age, got, bound, want)
		}
	}
	return took, nil
}

type gatherResult struct {
	points, rolls samples
	streams       int64 // stream answers gathered
	cpu           time.Duration
}

// gather alternates two PointAll (ages cycled) and one RollUp for d.
func (e *gatherEnv) gather(cfg runConfig, r *run, d time.Duration, tr *tracer) (gatherResult, error) {
	var res gatherResult
	cpu0 := selfCPU() + fleetCPU(e.nodes)
	begin := time.Now()
	age := 0
	for i := 0; time.Since(begin) < d || i < 3; i++ { // at least one round of each gather
		if i%3 < 2 {
			sp := tr.begin("cluster.PointAll", -1)
			took, err := e.pointAll(r, age, cfg.corrupt && i == 0)
			tr.end(sp)
			if err != nil {
				return res, err
			}
			res.points.add(took)
			age = (age + 1) % fleetGeometry.window
		} else {
			sp := tr.begin("cluster.RollUp", -1)
			took, err := e.rollUp(r)
			tr.end(sp)
			if err != nil {
				return res, err
			}
			res.rolls.add(took)
		}
		res.streams += int64(len(e.names))
	}
	res.cpu = selfCPU() + fleetCPU(e.nodes) - cpu0
	return res, nil
}

type reshardResult struct {
	rates    []float64 // moved streams per second, one per Rebalance
	first    *cluster.MigrationReport
	unfenced int
}

// reshard cycles the spare node into and out of the ring for at least
// d and at least cfg.size.reshardCycles full cycles. Around every
// Rebalance the same PointAll must answer identically.
func (e *gatherEnv) reshard(cfg runConfig, r *run, d time.Duration) (reshardResult, error) {
	var res reshardResult
	spare := e.nodes[3].addr
	begin := time.Now()
	for cycle := 0; cycle < cfg.size.reshardCycles || time.Since(begin) < d; cycle++ {
		for _, join := range []bool{true, false} {
			if err := e.append(r, topUpLen); err != nil {
				return res, err
			}
			before, err := e.client.PointAll(0)
			if err != nil {
				return res, err
			}
			var ring *cluster.Ring
			if join {
				ring, err = e.client.Ring().WithNode(spare)
			} else {
				ring, err = e.client.Ring().WithoutNode(spare)
			}
			if err != nil {
				return res, err
			}
			r.attempted.Add(1)
			t0 := time.Now()
			report, err := e.client.Rebalance(ring, cluster.RebalanceOptions{})
			took := time.Since(t0)
			if err != nil {
				r.failed.Add(1)
				return res, err
			}
			if res.first == nil {
				res.first = report
			}
			res.unfenced += len(report.Unfenced)
			r.attempted.Add(int64(len(report.Moves)))
			for _, mv := range report.Moves {
				if mv.Cold {
					r.failed.Add(1)
				}
			}
			if len(report.Moves) == 0 {
				return res, fmt.Errorf("bench: reshard cycle %d moved no stream", cycle)
			}
			res.rates = append(res.rates, float64(len(report.Moves))/took.Seconds())
			after, err := e.client.PointAll(0)
			if err != nil {
				return res, err
			}
			for k := range before {
				if after[k].Err != nil || after[k].Degraded ||
					after[k].Value != before[k].Value || after[k].Bound != 0 {
					r.mismatch("reshard cycle %d: %s answered %v±%v, was %v", cycle, after[k].Stream, after[k].Value, after[k].Bound, before[k].Value)
				}
			}
		}
	}
	return res, nil
}

func runGatherReshard(cfg runConfig, r *run) error {
	env, err := setUp(cfg, r, setupGather)
	if err != nil {
		return err
	}
	defer env.close()

	if cfg.trace {
		return traceGatherReshard(cfg, r, env)
	}
	var cpus, pointP50s, rollP50s []float64
	var points, rolls samples
	for i := 0; i < phaseSlices; i++ {
		g, err := env.gather(cfg, r, cfg.phase(0.5)/phaseSlices, nil)
		if err != nil {
			return err
		}
		cpus = append(cpus, float64(g.cpu)/float64(g.streams))
		pointP50s = append(pointP50s, percentile(g.points.sorted(), 0.5))
		rollP50s = append(rollP50s, percentile(g.rolls.sorted(), 0.5))
		points.merge(&g.points)
		rolls.merge(&g.rolls)
	}
	rs, err := env.reshard(cfg, r, cfg.phase(0.5))
	if err != nil {
		return err
	}
	if _, err := env.rollUp(r); err != nil {
		return err
	}
	stopFleet(env.nodes)

	r.set("rate_per_s", median(rs.rates))
	r.set("cpu_ns_per_unit", median(cpus))
	r.set("op_p50_us", median(pointP50s))
	// A slice holds too few gathers for a tail of its own: the 90th
	// percentile is over the whole phase.
	r.set("op_p90_us", percentile(points.sorted(), 0.9))
	r.set("aux_p50_ms", median(rollP50s)/1e3)
	r.set("peak_rss_mb", fleetRSS(env.nodes))
	r.timed("pointall_us", &points)
	r.timed("rollup_us", &rolls)
	return nil
}

func traceGatherReshard(cfg runConfig, r *run, env *gatherEnv) error {
	cpu0 := selfCPU()
	tr := newTracer()
	var points, rolls samples
	overhead, err := traceOverhead(tr, cfg.phase(0.4), func(d time.Duration, tr *tracer) (float64, error) {
		g, err := env.gather(cfg, r, d, tr)
		points.merge(&g.points)
		rolls.merge(&g.rolls)
		return float64(g.cpu) / float64(g.streams), err
	})
	if err != nil {
		return err
	}
	rs, err := env.reshard(cfg, r, cfg.phase(0.2))
	if err != nil {
		return err
	}
	var refusals uint64
	for _, n := range env.nodes {
		st, err := nodeStats(n.addr)
		if err != nil {
			return err
		}
		refusals += st.EpochRefusals
	}
	setPoolStats(r, env.client)
	genCPU := selfCPU() - cpu0
	stopFleet(env.nodes)

	r.set("trace_overhead_share", overhead)
	streams := float64(len(env.names))
	rollupUS := r.timed("rollup_us", &rolls).MedianUS
	r.set("cluster.pointall_us_per_stream", r.timed("pointall_us", &points).MedianUS/streams)
	r.set("cluster.rollup_us_per_stream", rollupUS/streams)
	r.set("cluster.first_pointall_ms", env.firstPointAllMS)
	r.set("cluster.first_rollup_ms", env.firstRollUpMS)
	var bytes, chunks int64
	for _, mv := range rs.first.Moves {
		bytes += mv.Bytes
		chunks += int64(mv.Chunks)
	}
	r.set("cluster.moved_streams", float64(len(rs.first.Moves)))
	r.set("cluster.moved_bytes", float64(bytes))
	r.set("cluster.chunks", float64(chunks))
	r.set("cluster.unfenced", float64(rs.unfenced))
	r.set("wire.epoch_refusals", float64(refusals))
	r.set("gen.cpu_s", genCPU.Seconds())
	r.set("gen.values_generated", float64(env.twinSum.Arrivals())*streams)
	setSwatdStats(r, env.nodes)

	l := ladder{r: r, tr: tr, budget: cfg.phase(0.4) / 10}
	decodeNS, err := l.coreSummary(env.twins[0], env.twins[1])
	if err != nil {
		return err
	}
	r.set("cluster.rollup_decode_share", 100*streams*decodeNS/1e3/rollupUS)
	l.treeHeap()
	if err := l.multiInstall(env.twins[:min(len(env.twins), 256)], env.names); err != nil {
		return err
	}
	if err := l.wireGather(env.twins[:min(len(env.twins), 256)], env.names); err != nil {
		return err
	}
	return tr.write(cfg.tracePath())
}
