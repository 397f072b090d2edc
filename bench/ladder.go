//go:build linux

package main

// The traced ladder: the workload's own generated values replayed
// through each layer's public functions, one rung per layer, each call
// recorded as a span by the benchmark. A layer's self cost is its rung
// minus the rung below. Ingest rungs are process CPU time per value —
// the socket rungs run several goroutines, and CPU is what the
// end-to-end cpu_ns_per_unit counts — except durable.append, which
// waits on the disk and is wall time like the rate it explains.
// Round-trip rungs are wall-clock medians.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/wavelet"
	"github.com/streamsum/swat/internal/wire"
)

type ladder struct {
	r      *run
	tr     *tracer
	budget time.Duration // per rung
}

// cost is what one rung's loop spent per unit of work.
type cost struct{ cpuNS, wallNS float64 }

// loop calls step until the rung's budget is spent, under one span,
// and returns CPU and wall time per unit; step returns the units it
// did. Process CPU time is only read at the ends, so it includes the
// server goroutines of the in-process socket rungs.
func (l *ladder) loop(name string, step func() (int, error)) (cost, error) {
	sp := l.tr.begin(name, -1)
	defer l.tr.end(sp)
	var units int
	cpu0, begin := selfCPU(), time.Now()
	for time.Since(begin) < l.budget {
		n, err := step()
		if err != nil {
			return cost{}, fmt.Errorf("bench: rung %s: %w", name, err)
		}
		units += n
	}
	wall, cpu := time.Since(begin), selfCPU()-cpu0
	return cost{cpuNS: float64(cpu) / float64(units), wallNS: float64(wall) / float64(units)}, nil
}

// rtts times calls one by one and returns the median in microseconds.
func (l *ladder) rtts(name string, call func(i int) error) (float64, error) {
	sp := l.tr.begin(name, -1)
	defer l.tr.end(sp)
	var s samples
	begin := time.Now()
	for i := 0; time.Since(begin) < l.budget; i++ {
		t0 := time.Now()
		if err := call(i); err != nil {
			return 0, fmt.Errorf("bench: rung %s: %w", name, err)
		}
		s.add(time.Since(t0))
	}
	return l.r.timed(name, &s).MedianUS, nil
}

// mallocs counts heap allocations of one call, averaged over runs.
func mallocs(runs int, call func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

func (l *ladder) wavelet(pool *valuePool) {
	k := fleetGeometry.coeffs
	dst := make([]float64, batchLen)
	dst2 := make([]float64, batchLen)
	j := 0
	c, _ := l.loop("wavelet.averages", func() (int, error) {
		a, err := wavelet.AveragesInto(dst, pool.batch(0, j), k)
		if err != nil {
			return 0, err
		}
		if _, err := wavelet.CombineAveragesInto(dst2, a, a, k); err != nil {
			return 0, err
		}
		j++
		return batchLen, nil
	})
	l.r.set("wavelet.averages_ns_per_value", c.cpuNS)
}

func (l *ladder) coreUpdate(pool *valuePool) float64 {
	t := newTree(fleetGeometry)
	j := 0
	c, _ := l.loop("core.UpdateBatch", func() (int, error) {
		t.UpdateBatch(pool.batch(j%pool.streams, j/pool.streams))
		j++
		return batchLen, nil
	})
	l.r.set("core.update_ns_per_value", c.cpuNS)
	return c.cpuNS
}

func poolNames(pool *valuePool) []string {
	names := make([]string, pool.streams)
	for k := range names {
		names[k] = fmt.Sprintf("rung.s%03d", k)
	}
	return names
}

func (l *ladder) multiObserve(pool *valuePool) (float64, error) {
	mon, err := newMonitor(fleetGeometry)
	if err != nil {
		return 0, err
	}
	defer mon.Close()
	names := poolNames(pool)
	for _, n := range names {
		if err := mon.Add(n); err != nil {
			return 0, err
		}
	}
	j := 0
	c, err := l.loop("multi.ObserveBatch", func() (int, error) {
		k := j % len(names)
		err := mon.ObserveBatch(names[k], pool.batch(k, j/len(names)))
		j++
		return batchLen, err
	})
	l.r.set("multi.observe_ns_per_value", c.cpuNS)
	return c.cpuNS, err
}

func (l *ladder) codec(pool *valuePool) {
	body := make([]byte, 2048)
	for i := range body {
		body[i] = byte(int(pool.vals[i%len(pool.vals)]) + i)
	}
	var buf []byte
	c, _ := l.loop("codec.AppendFrame+Next", func() (int, error) {
		buf = codec.AppendFrame(buf[:0], body)
		_, _, err := codec.Next(buf, len(body))
		return 1, err
	})
	l.r.set("codec.frame_ns", c.cpuNS)
	var sum uint32
	c, _ = l.loop("codec.Checksum", func() (int, error) {
		sum += codec.Checksum(body)
		return len(body), nil
	})
	l.r.set("codec.checksum_gb_per_s", 1/c.wallNS) // bytes per ns
	_ = sum
}

// wireFeed is BinClient.FeedStream into one in-process server and
// monitor over loopback, delivery bounded by Ping.
func (l *ladder) wireFeed(pool *valuePool) (float64, error) {
	n, err := startLocalNode(fleetGeometry, true, false)
	if err != nil {
		return 0, err
	}
	defer n.stop()
	bc, err := wire.DialBinary(n.addr)
	if err != nil {
		return 0, err
	}
	defer bc.Close()
	names := poolNames(pool)
	j := 0
	c, err := l.loop("wire.FeedStream", func() (int, error) {
		for i := 0; i < ingestSyncEvery*len(names); i++ {
			k := j % len(names)
			if err := bc.FeedStream(names[k], pool.batch(k, j/len(names))); err != nil {
				return 0, err
			}
			j++
		}
		_, err := bc.Ping()
		return ingestSyncEvery * len(names) * batchLen, err
	})
	l.r.set("wire.feed_ns_per_value", c.cpuNS)
	return c.cpuNS, err
}

func (l *ladder) wirePing() error {
	n, err := startLocalNode(fleetGeometry, false, false)
	if err != nil {
		return err
	}
	defer n.stop()
	bc, err := wire.DialBinary(n.addr)
	if err != nil {
		return err
	}
	defer bc.Close()
	us, err := l.rtts("wire.Ping", func(int) error { _, err := bc.Ping(); return err })
	l.r.set("wire.ping_rtt_us", us)
	return err
}

// clusterObserve is Client.ObserveBatch against an in-process fleet of
// the given size, Sync every ingestSyncEvery rounds like the workload.
func (l *ladder) clusterObserve(pool *valuePool, nodes int) (float64, error) {
	fleet, err := startFleet(fleetSpec{nodes: nodes, geo: fleetGeometry, streams: true})
	if err != nil {
		return 0, err
	}
	defer stopFleet(fleet)
	client, err := newClusterClient(fleetGeometry, addrs(fleet))
	if err != nil {
		return 0, err
	}
	defer client.Close()
	g := &ingestGen{client: client, pool: pool, names: poolNames(pool), sent: make([]int, pool.streams)}
	scratch := newRun() // the rung's operations are not the workload's
	c, err := l.loop(fmt.Sprintf("cluster.ObserveBatch.n%d", nodes), func() (int, error) {
		for i := 0; i < ingestSyncEvery; i++ {
			if err := g.round(scratch, 0, len(g.names)); err != nil {
				return 0, err
			}
		}
		return ingestSyncEvery * len(g.names) * batchLen, g.sync(scratch)
	})
	l.r.set(fmt.Sprintf("cluster.observe_ns_per_value.n%d", nodes), c.cpuNS)
	return c.cpuNS, err
}

func (l *ladder) ringOwner(names []string) error {
	ring, err := newRing([]string{"127.0.0.1:27481", "127.0.0.1:27482"})
	if err != nil {
		return err
	}
	i := 0
	var sink int
	c, _ := l.loop("cluster.Ring.Owner", func() (int, error) {
		sink += len(ring.Owner(names[i%len(names)]))
		i++
		return 1, nil
	})
	_ = sink
	l.r.set("cluster.ring_owner_ns", c.cpuNS)
	return nil
}

// warmQueryTree is a tree of the query geometry fed 2N pool values.
func warmQueryTree(pool *valuePool) *core.Tree {
	t := newTree(queryGeometry)
	for j := 0; j < 2*queryGeometry.window/batchLen; j++ {
		t.UpdateBatch(pool.batch(0, j))
	}
	return t
}

func (l *ladder) coreAnswer(pool *valuePool, frames [][]query.Query) (float64, error) {
	t := warmQueryTree(pool)
	dst := make([]float64, queryFrameLen)
	f := 0
	c, err := l.loop("core.AnswerBatch", func() (int, error) {
		err := t.AnswerBatch(dst, frames[f%len(frames)])
		f++
		return queryFrameLen, err
	})
	if err != nil {
		return 0, err
	}
	l.r.set("core.answer_batch_ns_per_query", c.wallNS)

	q := frames[0][0]
	plan, err := t.Compile(q.Ages, q.Weights)
	if err != nil {
		return 0, err
	}
	steady, err := l.loop("core.Plan.Eval", func() (int, error) {
		_, err := plan.Eval()
		return 1, err
	})
	if err != nil {
		return 0, err
	}
	l.r.set("core.plan_eval_ns", steady.wallNS)
	// Right after an update the plan must rebuild its terms; only the
	// Eval is timed.
	var s samples
	j := 2 * queryGeometry.window / batchLen
	sp := l.tr.begin("core.Plan.Eval.afterUpdate", -1)
	for begin := time.Now(); time.Since(begin) < l.budget; j++ {
		t.UpdateBatch(pool.batch(0, j))
		t0 := time.Now()
		if _, err := plan.Eval(); err != nil {
			return 0, err
		}
		s.add(time.Since(t0))
	}
	l.tr.end(sp)
	l.r.set("core.plan_recompile_ns", l.r.timed("core.Plan.Eval.afterUpdate", &s).MedianUS*1e3)
	return c.wallNS, nil
}

func (l *ladder) wireQueryBatch(pool *valuePool, frames [][]query.Query) (float64, error) {
	n, err := startLocalNode(queryGeometry, false, false)
	if err != nil {
		return 0, err
	}
	defer n.stop()
	bc, err := wire.DialBinary(n.addr)
	if err != nil {
		return 0, err
	}
	defer bc.Close()
	warm := 2 * queryGeometry.window / batchLen
	for j := 0; j < warm; j++ {
		if err := bc.FeedBatch(pool.batch(0, j)); err != nil {
			return 0, err
		}
	}
	if _, err := bc.Ping(); err != nil {
		return 0, err
	}
	if err := awaitApplied(bc, int64(warm)*batchLen); err != nil {
		return 0, err
	}
	dst := make([]float64, queryFrameLen)
	us, err := l.rtts("wire.QueryBatch", func(i int) error { return bc.QueryBatch(frames[i%len(frames)], dst) })
	l.r.set("wire.query_batch_us", us)
	return us, err
}

// coreSummary times the summary codec and the merge on two of the
// workload's own warm twins and returns the decode cost in ns.
func (l *ladder) coreSummary(a, b *core.Tree) (float64, error) {
	point, _ := l.loop("core.BoundedPoint", func() (int, error) {
		for age := 0; age < 64; age++ {
			if _, _, err := a.BoundedPoint(age * 16 % a.WindowSize()); err != nil {
				return 0, err
			}
		}
		return 64, nil
	})
	l.r.set("core.bounded_point_ns", point.wallNS)

	var enc []byte
	c, _ := l.loop("core.AppendSummary", func() (int, error) {
		enc = a.AppendSummary(enc[:0])
		return 1, nil
	})
	l.r.set("core.summary_encode_ns", c.wallNS)
	l.r.set("core.summary_bytes", float64(len(enc)))

	dec, err := l.loop("core.DecodeSummary", func() (int, error) {
		_, err := core.DecodeSummary(enc)
		return 1, err
	})
	if err != nil {
		return 0, err
	}
	l.r.set("core.summary_decode_ns", dec.wallNS)
	l.r.set("core.summary_decode_allocs", mallocs(64, func() { core.DecodeSummary(enc) }))

	sum := b.Export()
	mopts := core.MergeOptions{ValueLo: valueLo, ValueHi: valueHi}
	dst, err := core.FromSummary(a.Export())
	if err != nil {
		return 0, err
	}
	c, err = l.loop("core.MergeSummary", func() (int, error) { return 1, dst.MergeSummary(sum, mopts) })
	if err != nil {
		return 0, err
	}
	l.r.set("core.merge_ns", c.wallNS)
	l.r.set("core.merge_allocs", mallocs(64, func() { dst.MergeSummary(sum, mopts) }))
	return dec.wallNS, nil
}

// treeHeap is the live heap one warm tree of the fleet geometry holds,
// from the heap's growth over 1024 of them.
func (l *ladder) treeHeap() {
	const trees = 1024
	sp := l.tr.begin("core.New×1024", -1)
	defer l.tr.end(sp)
	vals := make([]float64, batchLen)
	for i := range vals {
		vals[i] = float64(i % 100)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := make([]*core.Tree, trees)
	for i := range keep {
		keep[i] = newTree(fleetGeometry)
		for j := 0; j < 2*fleetGeometry.window/batchLen; j++ {
			keep[i].UpdateBatch(vals)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	l.r.set("core.tree_heap_bytes", float64(after.HeapAlloc-before.HeapAlloc)/trees)
	runtime.KeepAlive(keep)
}

func (l *ladder) snapshot(pool *valuePool) {
	t := newTree(fleetGeometry)
	for j := 0; j < 2*fleetGeometry.window/batchLen; j++ {
		t.UpdateBatch(pool.batch(0, j))
	}
	var snap []byte
	c, _ := l.loop("core.MarshalBinary", func() (int, error) {
		var err error
		snap, err = t.MarshalBinary()
		return 1, err
	})
	l.r.set("core.snapshot_marshal_ns", c.wallNS)
	into := newTree(fleetGeometry)
	c, _ = l.loop("core.UnmarshalBinary", func() (int, error) { return 1, into.UnmarshalBinary(snap) })
	l.r.set("core.snapshot_unmarshal_ns", c.wallNS)
}

// multiInstall times Monitor.InstallSummary and QueryAll over the
// workload's warm twins.
func (l *ladder) multiInstall(twins []*core.Tree, names []string) error {
	mon, err := newMonitor(fleetGeometry)
	if err != nil {
		return err
	}
	defer mon.Close()
	sums := make([]*core.Summary, len(twins))
	for k, t := range twins {
		sums[k] = t.Export()
	}
	i := 0
	c, err := l.loop("multi.InstallSummary", func() (int, error) {
		k := i % len(sums)
		i++
		return 1, mon.InstallSummary(names[k], sums[k])
	})
	if err != nil {
		return err
	}
	l.r.set("multi.install_summary_ns", c.wallNS)
	for k := i; k < len(sums); k++ { // a short budget may not have reached every stream
		if err := mon.InstallSummary(names[k], sums[k]); err != nil {
			return err
		}
	}
	q, err := query.New(query.Exponential, 0, 16, 0)
	if err != nil {
		return err
	}
	c, err = l.loop("multi.QueryAll", func() (int, error) {
		answers, err := mon.QueryAll(q)
		return len(answers), err
	})
	l.r.set("multi.queryall_ns_per_stream", c.wallNS)
	return err
}

// wireGather times the three round trips a gather and a handoff are
// made of, against in-process nodes holding the workload's twins.
func (l *ladder) wireGather(twins []*core.Tree, names []string) error {
	fleet, err := startFleet(fleetSpec{nodes: 2, geo: fleetGeometry, streams: true})
	if err != nil {
		return err
	}
	defer stopFleet(fleet)
	for k, t := range twins {
		if err := fleet[0].mon.InstallSummary(names[k], t.Export()); err != nil {
			return err
		}
	}
	src, err := wire.DialBinary(fleet[0].addr)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := wire.DialBinary(fleet[1].addr)
	if err != nil {
		return err
	}
	defer dst.Close()
	us, err := l.rtts("wire.StreamPoint", func(i int) error {
		_, _, _, err := src.StreamPoint(names[i%len(twins)], i%fleetGeometry.window)
		return err
	})
	if err != nil {
		return err
	}
	l.r.set("wire.stream_point_us", us)
	us, err = l.rtts("wire.FetchStreamSummary", func(i int) error {
		_, err := src.FetchStreamSummary(names[i%len(twins)])
		return err
	})
	if err != nil {
		return err
	}
	l.r.set("wire.fetch_summary_us", us)

	// One handoff per stream: a second one of the same bytes would be
	// answered from the destination's committed identity.
	var s samples
	sp := l.tr.begin("wire.Mig", -1)
	for k := range twins {
		t0 := time.Now()
		ch, err := src.MigRead(names[k], 0, 0, 0)
		if err != nil {
			return err
		}
		if int64(len(ch.Data)) != ch.Total {
			return fmt.Errorf("bench: summary of %d bytes did not fit one chunk", ch.Total)
		}
		if _, err := dst.MigWrite(names[k], 0, ch.Total, ch.CRC, nil); err != nil {
			return err
		}
		if _, err := dst.MigWrite(names[k], 0, ch.Total, ch.CRC, ch.Data); err != nil {
			return err
		}
		st, err := dst.MigCommit(names[k], ch.Total, ch.CRC, 0)
		if err != nil {
			return err
		}
		if !st.Committed {
			return fmt.Errorf("bench: handoff of %s not committed", names[k])
		}
		s.add(time.Since(t0))
	}
	l.tr.end(sp)
	l.r.set("wire.mig_roundtrip_us", l.r.timed("wire.Mig", &s).MedianUS)
	return nil
}

// durableAppend is Store.Append of 256-value batches into one store,
// then explicit checkpoints; wall time, because the log waits on the
// disk.
func (l *ladder) durableAppend(cfg runConfig, pool *valuePool) error {
	dir := filepath.Join(cfg.workDir, "rung-store")
	defer os.RemoveAll(dir)
	st, err := openStore(fleetGeometry, dir)
	if err != nil {
		return err
	}
	defer st.Close()
	// Appends come in groups of one automatic-checkpoint interval, and
	// the newest snapshot's name is looked at between groups: a new
	// name is a checkpoint taken.
	var checkpoints int
	newest := ""
	j := 0
	wrote0 := procWriteBytes()
	c, err := l.loop("durable.Append", func() (int, error) {
		for i := 0; i < checkpointRounds; i++ {
			if err := st.Append(pool.batch(0, j)); err != nil {
				return 0, err
			}
			j++
		}
		if name := newestSnapshot(dir); name != newest {
			newest = name
			checkpoints++
		}
		return durableCheckpointEvery, nil
	})
	if err != nil {
		return err
	}
	l.r.set("durable.append_ns_per_value", c.wallNS)
	l.r.set("durable.checkpoints", float64(checkpoints))
	l.r.set("durable.wal_bytes_per_value", float64(procWriteBytes()-wrote0)/float64(st.Arrivals()))

	var s samples
	sp := l.tr.begin("durable.Checkpoint", -1)
	for begin := time.Now(); time.Since(begin) < l.budget; j++ {
		if err := st.Append(pool.batch(0, j)); err != nil {
			return err
		}
		t0 := time.Now()
		if err := st.Checkpoint(); err != nil {
			return err
		}
		s.add(time.Since(t0))
	}
	l.tr.end(sp)
	l.r.set("durable.checkpoint_ms", l.r.timed("durable.Checkpoint", &s).MedianUS/1e3)
	return nil
}

func newestSnapshot(dir string) string {
	entries, _ := os.ReadDir(dir)
	newest := ""
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") && e.Name() > newest {
			newest = e.Name()
		}
	}
	return newest
}

// procWriteBytes is how many bytes this process has handed to write
// system calls (0 where /proc/self/io is absent).
func procWriteBytes() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return n
		}
	}
	return 0
}
