//go:build linux

package main

// Workload query-node: one plain swatd (N=4096, k=4). A feeder writes
// 200 k values/s open loop while one closed-loop client sends frames
// of 64 random exponential inner-product queries, so a read speed-up
// paid for with a longer write lock shows here.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/wire"
)

const (
	queryFrameLen = 64
	queryMaxLen   = 64
	queryFrames   = 256 // distinct pre-generated frames, cycled
	feedEvery     = 1280 * time.Microsecond
	feedPoolSlots = 64
)

type queryEnv struct {
	nodes  []*node
	feed   *wire.BinClient
	ask    *wire.BinClient
	pool   *valuePool // one stream
	fed    int        // batches fed
	twin   *core.Tree
	twinAt int // batches the twin has absorbed
	frames [][]query.Query
}

func setupQuery(cfg runConfig, r *run) (*queryEnv, error) {
	nodes, err := startFleet(fleetSpec{nodes: 1, geo: queryGeometry, swatd: cfg.swatd, workDir: cfg.workDir})
	if err != nil {
		return nil, err
	}
	env := &queryEnv{nodes: nodes, twin: newTree(queryGeometry), pool: newValuePool(cfg.seed, feedPoolSlots, 1)}
	if env.feed, err = wire.DialBinary(nodes[0].addr); err != nil {
		env.close()
		return nil, err
	}
	if env.ask, err = wire.DialBinary(nodes[0].addr); err != nil {
		env.close()
		return nil, err
	}
	gen, err := query.NewGenerator(query.Exponential, query.Random, queryGeometry.window, queryMaxLen, 0, cfg.seed)
	if err != nil {
		env.close()
		return nil, err
	}
	for f := 0; f < queryFrames; f++ {
		frame := make([]query.Query, queryFrameLen)
		for i := range frame {
			frame[i] = gen.Next()
		}
		env.frames = append(env.frames, frame)
	}
	for j := 0; j < 2*queryGeometry.window/batchLen; j++ {
		r.attempted.Add(1)
		if err := env.feed.FeedBatch(env.pool.batch(0, env.fed)); err != nil {
			r.failed.Add(1)
			env.close()
			return nil, err
		}
		env.fed++
	}
	// The quiesced check doubles as the warm-up query.
	if err := env.checkQuiesced(cfg, r, false); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (e *queryEnv) close() {
	if e.feed != nil {
		e.feed.Close()
	}
	if e.ask != nil {
		e.ask.Close()
	}
	stopFleet(e.nodes)
}

// checkQuiesced waits until the node applied everything fed, then
// demands the node's answers equal the twin's bit for bit.
func (e *queryEnv) checkQuiesced(cfg runConfig, r *run, corrupt bool) error {
	if _, err := e.feed.Ping(); err != nil {
		return err
	}
	if err := awaitApplied(e.ask, int64(e.fed)*batchLen); err != nil {
		return err
	}
	for ; e.twinAt < e.fed; e.twinAt++ {
		e.twin.UpdateBatch(e.pool.batch(0, e.twinAt))
	}
	got := make([]float64, queryFrameLen)
	want := make([]float64, queryFrameLen)
	for f := 0; f < 8; f++ {
		frame := e.frames[f*len(e.frames)/8]
		r.attempted.Add(1)
		if err := e.ask.QueryBatch(frame, got); err != nil {
			r.failed.Add(1)
			return err
		}
		if corrupt && f == 0 {
			got[0] = math.Nextafter(got[0], math.Inf(1))
		}
		if err := e.twin.AnswerBatch(want, frame); err != nil {
			return err
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				r.mismatch("query frame %d answer %d: node %v, twin %v", f, i, got[i], want[i])
			}
		}
	}
	return nil
}

type queryResult struct {
	frames  samples
	feedAck samples
	late    samples
	elapsed time.Duration
	cpu     time.Duration
}

// serve runs the feeder and the querier side by side for d.
func (e *queryEnv) serve(r *run, d time.Duration, tr *tracer) (queryResult, error) {
	var (
		res     queryResult
		wg      sync.WaitGroup
		feedErr error
		askErr  error
	)
	cpu0 := selfCPU() + fleetCPU(e.nodes)
	begin := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		// The feeder is background load. Kernel-punctual wake-ups every
		// 1.28 ms on the two cores it shares with the querier and the
		// node take whole scheduler slices from them — a third of the
		// queries per second and a 90th percentile eight times higher,
		// measured — which would make this workload a benchmark of the
		// kernel's scheduler. The runtime's timer feeds the same values
		// per second with jitter, reported as gen.lateness_p99_us.
		p := pacer{start: begin, every: feedEvery}
		for {
			due := p.next()
			if due.Sub(begin) >= d {
				break
			}
			r.attempted.Add(1)
			if feedErr = e.feed.FeedBatch(e.pool.batch(0, e.fed)); feedErr == nil {
				_, feedErr = e.feed.Ping()
			}
			if feedErr != nil {
				r.failed.Add(1)
				break
			}
			e.fed++
			res.feedAck.add(time.Since(due))
		}
		res.late = p.late
	}()
	go func() {
		defer wg.Done()
		dst := make([]float64, queryFrameLen)
		deadline := begin.Add(d)
		for f := 0; time.Now().Before(deadline); f++ {
			frame := e.frames[f%len(e.frames)]
			r.attempted.Add(1)
			sp := tr.begin("wire.QueryBatch", -1)
			t0 := time.Now()
			askErr = e.ask.QueryBatch(frame, dst)
			res.frames.add(time.Since(t0))
			tr.end(sp)
			if askErr != nil {
				r.failed.Add(1)
				break
			}
			for i, v := range dst {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					r.mismatch("query frame %d answer %d is %v", f, i, v)
				}
			}
		}
	}()
	wg.Wait()
	res.elapsed = time.Since(begin)
	res.cpu = selfCPU() + fleetCPU(e.nodes) - cpu0
	if feedErr != nil {
		return res, feedErr
	}
	if askErr != nil {
		return res, askErr
	}
	if len(res.frames.us) == 0 {
		return res, fmt.Errorf("bench: query phase of %v answered nothing", d)
	}
	return res, nil
}

func runQueryNode(cfg runConfig, r *run) error {
	env, err := setUp(cfg, r, setupQuery)
	if err != nil {
		return err
	}
	defer env.close()

	if cfg.trace {
		return traceQueryNode(cfg, r, env)
	}
	var rates, cpus, frameP50s, frameP90s, feedP50s []float64
	var frames, feedAck, late samples
	for i := 0; i < phaseSlices; i++ {
		res, err := env.serve(r, cfg.phase(1)/phaseSlices, nil)
		if err != nil {
			return err
		}
		queries := float64(len(res.frames.us) * queryFrameLen)
		rates = append(rates, queries/res.elapsed.Seconds())
		cpus = append(cpus, float64(res.cpu)/queries)
		v := res.frames.sorted()
		frameP50s = append(frameP50s, percentile(v, 0.5))
		frameP90s = append(frameP90s, percentile(v, 0.9))
		feedP50s = append(feedP50s, percentile(res.feedAck.sorted(), 0.5))
		frames.merge(&res.frames)
		feedAck.merge(&res.feedAck)
		late.merge(&res.late)
	}
	if err := env.checkQuiesced(cfg, r, cfg.corrupt); err != nil {
		return err
	}
	stopFleet(env.nodes)

	r.set("rate_per_s", median(rates))
	r.set("cpu_ns_per_unit", median(cpus))
	r.set("op_p50_us", median(frameP50s))
	r.set("op_p90_us", median(frameP90s))
	r.set("aux_p50_ms", median(feedP50s)/1e3)
	r.set("peak_rss_mb", fleetRSS(env.nodes))
	r.timed("query_batch_us", &frames)
	r.timed("feed_ack_us", &feedAck)
	r.timed("gen_lateness_us", &late)
	return nil
}

func traceQueryNode(cfg runConfig, r *run, env *queryEnv) error {
	cpu0 := selfCPU()
	tr := newTracer()
	var frames, late samples
	overhead, err := traceOverhead(tr, cfg.phase(0.6), func(d time.Duration, tr *tracer) (float64, error) {
		res, err := env.serve(r, d, tr)
		frames.merge(&res.frames)
		late.merge(&res.late)
		return float64(res.cpu) / float64(len(res.frames.us)), err
	})
	if err != nil {
		return err
	}
	if err := env.checkQuiesced(cfg, r, cfg.corrupt); err != nil {
		return err
	}
	st, err := env.ask.Stats()
	if err != nil {
		return err
	}
	genCPU := selfCPU() - cpu0
	stopFleet(env.nodes)

	r.set("trace_overhead_share", overhead)
	r.set("wire.query_batch_p99_us", percentile(frames.sorted(), 0.99))
	r.timed("query_batch_us", &frames)
	r.set("wire.enqueued_values", float64(st.EnqueuedValues))
	r.set("wire.shed_values", float64(st.ShedValues))
	r.set("wire.ingest_errors", float64(st.IngestErrors))
	r.set("gen.cpu_s", genCPU.Seconds())
	r.set("gen.lateness_p99_us", percentile(late.sorted(), 0.99))
	r.set("gen.values_generated", float64(env.pool.values()))
	setSwatdStats(r, env.nodes)

	l := ladder{r: r, tr: tr, budget: cfg.phase(0.4) / 5}
	perQuery, err := l.coreAnswer(env.pool, env.frames)
	if err != nil {
		return err
	}
	if err := l.wirePing(); err != nil {
		return err
	}
	rtt, err := l.wireQueryBatch(env.pool, env.frames)
	if err != nil {
		return err
	}
	r.set("wire.query_self_us", rtt-perQuery*queryFrameLen/1e3)
	return tr.write(cfg.tracePath())
}
