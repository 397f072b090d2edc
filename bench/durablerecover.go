//go:build linux

package main

// Workload durable-recover: a child of this binary writes named
// streams through a durable multi.Monitor as fast as the log accepts,
// is killed with SIGKILL mid-write, and the parent times recovery of
// the surviving directory. In-process because `swatd -streams
// -data-dir` does not make streams durable yet (ROADMAP item 2).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"github.com/streamsum/swat/internal/stream"
)

// writerRecord is what the child reports after every round (one batch
// to every stream): its clock, CPU time and acknowledged values so
// far, and the round's per-batch latencies. Fixed size, so a record
// torn by the kill is recognisably short.
type writerRecord struct {
	clockNS, cpuNS int64
	acked          int64
	latNS          []uint32
}

func (w *writerRecord) size(streams int) int { return 24 + 4*streams }

func (w *writerRecord) encode(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(w.clockNS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.cpuNS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.acked))
	for _, l := range w.latNS {
		buf = binary.LittleEndian.AppendUint32(buf, l)
	}
	return buf
}

func (w *writerRecord) decode(buf []byte) {
	w.clockNS = int64(binary.LittleEndian.Uint64(buf))
	w.cpuNS = int64(binary.LittleEndian.Uint64(buf[8:]))
	w.acked = int64(binary.LittleEndian.Uint64(buf[16:]))
	w.latNS = w.latNS[:0]
	for off := 24; off < len(buf); off += 4 {
		w.latNS = append(w.latNS, binary.LittleEndian.Uint32(buf[off:]))
	}
}

// checkpointRounds is how many rounds of one batch per stream lie
// between two automatic checkpoints of a stream's store.
const checkpointRounds = durableCheckpointEvery / batchLen

func durableName(k int) string { return "dur.s" + strconv.Itoa(1000+k) }

// durableWriter is the child: `bench -role durable-writer`. It writes
// until it is killed.
func durableWriter(dir string, seed int64, streams int) error {
	mon, err := newDurableMonitor(fleetGeometry, dir)
	if err != nil {
		return err
	}
	names := make([]string, streams)
	srcs := make([]stream.Source, streams)
	for k := range names {
		names[k] = durableName(k)
		srcs[k] = stream.Uniform(streamSeed(seed, k))
		if err := mon.Add(names[k]); err != nil {
			return err
		}
	}
	out := bufio.NewWriter(os.Stdout)
	rec := writerRecord{latNS: make([]uint32, streams)}
	vals := make([]float64, batchLen)
	var buf []byte
	begin := time.Now()
	for {
		for k, name := range names {
			for i := range vals {
				vals[i] = srcs[k].Next()
			}
			t0 := time.Now()
			if err := mon.ObserveBatch(name, vals); err != nil {
				return err
			}
			rec.latNS[k] = uint32(time.Since(t0))
		}
		rec.acked += int64(streams) * batchLen
		rec.clockNS, rec.cpuNS = int64(time.Since(begin)), int64(selfCPU())
		buf = rec.encode(buf)
		if _, err := out.Write(buf); err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}
}

type durableCycle struct {
	setupS   float64
	acked    int64 // all the writer acknowledged before it died
	values   int64 // acked inside the measured window
	window   time.Duration
	cpu      time.Duration
	lats     samples
	rssMB    float64
	recoverS float64
	replayed int
}

// durableCycleRun is one write → SIGKILL → recover cycle over a fresh
// directory.
func durableCycleRun(cfg runConfig, r *run, cycle int, write time.Duration) (durableCycle, error) {
	var c durableCycle
	dir := filepath.Join(cfg.workDir, "durable-"+strconv.Itoa(cycle))
	defer os.RemoveAll(dir)
	seed := cfg.seed*100 + int64(cycle)
	streams := cfg.size.durableStreams

	begin := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return c, err
	}
	self, err := os.Executable()
	if err != nil {
		return c, err
	}
	cmd := exec.Command(self, "-role", "durable-writer", "-dir", dir,
		"-seed", strconv.FormatInt(seed, 10), "-streams", strconv.Itoa(streams))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return c, err
	}
	if err := cmd.Start(); err != nil {
		return c, err
	}
	children.add(cmd)
	reap := func() {
		cmd.Process.Kill()
		cmd.Wait()
		children.remove(cmd)
	}

	// Records up to the kill. The first one ends set-up: the child has
	// opened every store and written one full round.
	var first, last writerRecord
	rec := writerRecord{}
	buf := make([]byte, rec.size(streams))
	in := bufio.NewReader(pipe)
	var killed bool
	var killAt time.Time
	for {
		if _, err := io.ReadFull(in, buf); err != nil {
			if killed {
				break // EOF or a record torn by the kill
			}
			reap()
			return c, fmt.Errorf("bench: durable writer stopped on its own: %w", err)
		}
		rec.decode(buf)
		r.attempted.Add(int64(streams))
		if first.acked == 0 {
			first = rec
			first.latNS = nil
			c.setupS = time.Since(begin).Seconds()
			killAt = time.Now().Add(write)
			continue
		}
		if killed {
			// Written before the kill landed, read after: still acked.
			last.acked = rec.acked
			continue
		}
		last = rec
		last.latNS = nil
		for _, l := range rec.latNS {
			c.lats.add(time.Duration(l))
		}
		// The kill lands half-way between two automatic checkpoints —
		// every stream then has the expected WAL tail to replay — and not
		// wherever the window's end happens to fall, which would make
		// recovery time a draw from 0 to a full checkpoint interval.
		rounds := rec.acked / (int64(streams) * batchLen)
		if time.Now().After(killAt) && rounds%checkpointRounds == checkpointRounds/2 {
			c.values = last.acked - first.acked
			c.window = time.Duration(last.clockNS - first.clockNS)
			c.cpu = time.Duration(last.cpuNS - first.cpuNS)
			c.rssMB = procPeakRSS(cmd.Process.Pid)
			cmd.Process.Signal(syscall.SIGKILL)
			killed = true
		}
	}
	cmd.Wait()
	children.remove(cmd)
	if c.values <= 0 {
		return c, fmt.Errorf("bench: durable writer acked nothing in %v", write)
	}

	// Recovery, timed: open the monitor over what survived and re-add
	// every stream.
	t0 := time.Now()
	mon, err := newDurableMonitor(fleetGeometry, dir)
	if err != nil {
		return c, err
	}
	defer mon.Close()
	for k := 0; k < streams; k++ {
		if err := mon.Add(durableName(k)); err != nil {
			r.failed.Add(1)
			return c, err
		}
	}
	c.recoverS = time.Since(t0).Seconds()
	r.attempted.Add(int64(streams))

	// Every stream must hold an exact prefix of what was sent, no
	// shorter than the acknowledged count less the sync policy's bound.
	c.acked = last.acked
	ackedPerStream := last.acked / int64(streams)
	floor := ackedPerStream - int64(durableOptions.LossBoundRecords())*batchLen
	vals := make([]float64, batchLen)
	for k := 0; k < streams; k++ {
		name := durableName(k)
		tree, err := mon.Tree(name)
		if err != nil {
			return c, err
		}
		info, err := mon.Recovery(name)
		if err != nil {
			return c, err
		}
		c.replayed += info.ReplayedRecords
		got := tree.Arrivals()
		if cfg.corrupt && cycle == 0 && k == 0 {
			got -= batchLen
		}
		if got < floor || got%batchLen != 0 {
			r.mismatch("%s recovered %d arrivals, acked %d, loss bound %d records", name, got, ackedPerStream, durableOptions.LossBoundRecords())
			continue
		}
		twin := newTree(fleetGeometry)
		src := stream.Uniform(streamSeed(seed, k))
		for n := int64(0); n < got; n += batchLen {
			for i := range vals {
				vals[i] = src.Next()
			}
			twin.UpdateBatch(vals)
		}
		if !bytes.Equal(tree.AppendSummary(nil), twin.AppendSummary(nil)) {
			r.mismatch("%s recovered state is not the %d-arrival prefix of what was sent", name, got)
		}
	}
	return c, nil
}

func runDurableRecover(cfg runConfig, r *run) error {
	cycles := cfg.size.durableCycles
	share := 1.0
	if cfg.trace {
		share = 0.6
	}
	write := cfg.phase(share) / time.Duration(cycles)
	var (
		setups, rates, cpus, recovers []float64
		latP50s, latP90s, latP99s     []float64
		lats                          samples
		rss                           float64
		replayed                      int
		generated                     int64
		writerCPU                     time.Duration
	)
	for cycle := 0; cycle < cycles; cycle++ {
		c, err := durableCycleRun(cfg, r, cycle, write)
		if err != nil {
			return err
		}
		setups = append(setups, c.setupS)
		rates = append(rates, float64(c.values)/c.window.Seconds())
		cpus = append(cpus, float64(c.cpu)/float64(c.values))
		recovers = append(recovers, c.recoverS)
		v := c.lats.sorted()
		latP50s = append(latP50s, percentile(v, 0.5))
		latP90s = append(latP90s, percentile(v, 0.9))
		latP99s = append(latP99s, percentile(v, 0.99))
		lats.merge(&c.lats)
		rss = max(rss, c.rssMB)
		replayed += c.replayed
		generated += c.acked
		writerCPU += c.cpu
	}
	rate := median(rates)
	r.set("setup_s", median(setups))
	r.set("rate_per_s", rate)
	r.set("cpu_ns_per_unit", median(cpus))
	r.set("op_p50_us", median(latP50s))
	r.set("op_p90_us", median(latP90s))
	r.set("aux_p50_ms", median(recovers)*1e3)
	r.set("peak_rss_mb", rss)
	r.timed("durable_observe_us", &lats)
	if !cfg.trace {
		return nil
	}
	r.set("durable.observe_p99_us", median(latP99s))
	r.set("durable.recover_ms_per_stream", median(recovers)*1e3/float64(cfg.size.durableStreams))
	r.set("durable.replayed_records", float64(replayed))
	// The system under test here is the writer child, not a swatd.
	r.set("swatd.cpu_s", writerCPU.Seconds())
	r.set("swatd.rss_mb", rss)
	r.set("gen.values_generated", float64(generated))

	pool := newValuePool(cfg.seed, ingestPoolSlots, 16)
	tr := newTracer()
	l := ladder{r: r, tr: tr, budget: cfg.phase(0.4) / 8}
	l.coreUpdate(pool)
	observe, err := l.multiObserve(pool)
	if err != nil {
		return err
	}
	l.codec(pool)
	l.snapshot(pool)
	l.treeHeap()
	if err := l.durableAppend(cfg, pool); err != nil {
		return err
	}
	// What durability adds is read on the workload itself: its wall
	// time per value less the same ObserveBatch without a data
	// directory. The single-store Append rung above has another fsync
	// pattern than 256 stores written in turn.
	perValue := 1e9 / rate
	r.set("durable.self_ns_per_value", perValue-observe)
	r.set("durable.self_share", 100*(perValue-observe)/perValue)
	return tr.write(cfg.tracePath())
}
