// Command swatload drives a swatd server, or a fleet of them, at line
// rate and reports ingest throughput and latency of a real deployment.
//
// Usage:
//
//	swatload -addr 127.0.0.1:7467 -conns 4 -batch 256 -duration 10s
//	swatload -addr 127.0.0.1:7467 -conns 4 -duration 10s -json
//	swatload -cluster 127.0.0.1:7471,127.0.0.1:7472 -streams 16 -duration 10s
//
// Against one node each connection streams batched binary data frames
// (one-way) and samples ingest latency with periodic pings, which under
// the server's block policy measure real backpressure: a ping answers
// only after every frame before it was accepted. With -cluster each
// worker opens a cluster client over the listed
// swatd nodes and ships named-stream batches, sharded by the
// consistent-hash ring; Sync round trips sample ingest latency across
// the whole fleet. -json emits one machine-readable result object
// instead of text.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/streamsum/swat/internal/cluster"
	"github.com/streamsum/swat/internal/stream"
	"github.com/streamsum/swat/internal/wire"
)

// result is the run summary, shaped for -json consumers. Proto is
// "v2" against one node and "cluster" against a fleet.
type result struct {
	Proto        string  `json:"proto"`
	Conns        int     `json:"conns"`
	Batch        int     `json:"batch"`
	Seconds      float64 `json:"seconds"`
	Msgs         int64   `json:"msgs"`
	Values       int64   `json:"values"`
	MsgsPerSec   float64 `json:"msgs_per_sec"`
	ValuesPerSec float64 `json:"values_per_sec"`
	P50Micros    float64 `json:"p50_us"`
	P99Micros    float64 `json:"p99_us"`
	// Single-node only: the server's queue accounting after the run.
	EnqueuedValues uint64 `json:"enqueued_values,omitempty"`
	ShedValues     uint64 `json:"shed_values,omitempty"`
	// Cluster-only: fleet shape, connection churn, per-node ingest
	// accounting (for load-balance analysis), and one scatter-gather
	// round trip of each kind timed after the run.
	Nodes          int        `json:"nodes,omitempty"`
	Streams        int        `json:"streams,omitempty"`
	Retries        uint64     `json:"retries,omitempty"`
	PerNode        []nodeLoad `json:"per_node,omitempty"`
	PointAllMillis float64    `json:"pointall_ms,omitempty"`
	RollUpMillis   float64    `json:"rollup_ms,omitempty"`
	// RingEpoch is the client's placement version; Migration is present
	// while a Rebalance is in flight on the sampled client.
	RingEpoch uint64          `json:"ring_epoch,omitempty"`
	Migration *migrationState `json:"migration,omitempty"`
}

// migrationState is the in-flight Rebalance snapshot, when any.
type migrationState struct {
	FromEpoch     uint64 `json:"from_epoch"`
	ToEpoch       uint64 `json:"to_epoch"`
	MovedStreams  int    `json:"moved_streams"`
	TotalMoves    int    `json:"total_moves"`
	CurrentStream string `json:"current_stream,omitempty"`
}

// nodeLoad is one node's share of the sharded ingest.
type nodeLoad struct {
	Addr           string  `json:"addr"`
	EnqueuedValues uint64  `json:"enqueued_values"`
	Share          float64 `json:"share"`
	// RingEpoch is the fence epoch the node reports; a node behind the
	// client's epoch has not yet learned of the latest reshard.
	RingEpoch uint64 `json:"ring_epoch"`
}

// percentile returns the p-th percentile of sorted durations, in
// microseconds.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Microsecond)
}

// connStats is one worker connection's contribution.
type connStats struct {
	msgs, values int64
	retries      uint64
	lats         []time.Duration
	err          error
	// Cluster worker 0 only: post-run gather round trips and the
	// client's placement snapshot.
	pointAllMS, rollUpMS float64
	clStats              *cluster.Stats
}

// runV2 streams binary batches on one connection until deadline,
// pinging every pingEvery batches for a latency sample.
func runV2(addr string, batch int, seed int64, deadline time.Time) connStats {
	var cs connStats
	c, err := wire.DialBinary(addr)
	if err != nil {
		cs.err = err
		return cs
	}
	defer c.Close()
	src := stream.Uniform(seed)
	vals := make([]float64, batch)
	const pingEvery = 64
	for time.Now().Before(deadline) {
		for i := 0; i < pingEvery && time.Now().Before(deadline); i++ {
			for j := range vals {
				vals[j] = src.Next()
			}
			if cs.err = c.FeedBatch(vals); cs.err != nil {
				return cs
			}
			cs.msgs++
			cs.values += int64(batch)
		}
		d, err := c.Ping()
		if err != nil {
			cs.err = err
			return cs
		}
		cs.lats = append(cs.lats, d)
	}
	// A final ping bounds delivery of everything sent on this
	// connection before the run is declared done.
	if _, err := c.Ping(); err != nil {
		cs.err = err
	}
	return cs
}

// runCluster shards named-stream batches across a fleet from one
// worker until deadline. Each worker gets its own client (own ring
// instance, pools, and held feed connections) and its own stream
// names, so workers scale like independent producers. A Sync round
// trip across every node samples fleet-wide ingest latency.
func runCluster(cfg cluster.Config, worker, streams, batch int, seed int64, deadline time.Time) connStats {
	var cs connStats
	c, err := cluster.New(cfg)
	if err != nil {
		cs.err = err
		return cs
	}
	defer c.Close()
	srcs := make([]stream.Source, streams)
	batches := make([]cluster.Batch, streams)
	for k := range batches {
		srcs[k] = stream.Uniform(seed + int64(k))
		batches[k] = cluster.Batch{
			Stream: fmt.Sprintf("load.w%d.s%d", worker, k),
			Values: make([]float64, batch),
		}
	}
	const syncEvery = 16
	for time.Now().Before(deadline) {
		for i := 0; i < syncEvery && time.Now().Before(deadline); i++ {
			for k := range batches {
				for j := range batches[k].Values {
					batches[k].Values[j] = srcs[k].Next()
				}
			}
			if cs.err = c.ObserveBatch(batches); cs.err != nil {
				return cs
			}
			cs.msgs += int64(streams)
			cs.values += int64(streams * batch)
		}
		start := time.Now()
		if cs.err = c.Sync(); cs.err != nil {
			return cs
		}
		cs.lats = append(cs.lats, time.Since(start))
	}
	// Bound delivery of everything sent before declaring the run done.
	if cs.err = c.Sync(); cs.err != nil {
		return cs
	}
	for _, ps := range c.Pools() {
		cs.retries += ps.Retries
	}
	// Worker 0 times one scatter-gather of each kind over its streams.
	if worker == 0 {
		start := time.Now()
		if _, err := c.PointAll(0); err != nil {
			cs.err = err
			return cs
		}
		cs.pointAllMS = float64(time.Since(start)) / float64(time.Millisecond)
		start = time.Now()
		if _, err := c.RollUp(); err != nil {
			cs.err = err
			return cs
		}
		cs.rollUpMS = float64(time.Since(start)) / float64(time.Millisecond)
		st := c.Stats()
		cs.clStats = &st
	}
	return cs
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7467", "server address")
		conns    = flag.Int("conns", 4, "concurrent connections")
		batch    = flag.Int("batch", 256, "values per v2 data frame")
		duration = flag.Duration("duration", 10*time.Second, "run length")
		seed     = flag.Int64("seed", 1, "base stream seed (each connection offsets it)")
		asJSON   = flag.Bool("json", false, "emit one JSON result object instead of text")
		fleet    = flag.String("cluster", "", "comma-separated swatd addresses: shard named streams across them instead of -addr")
		nstreams = flag.Int("streams", 8, "cluster mode: named streams per worker")
		vnodes   = flag.Int("vnodes", 0, "cluster mode: virtual nodes per ring member (0: library default)")
		window   = flag.Int("window", 1024, "cluster mode: sliding-window size N of the fleet (must match swatd)")
		coeffs   = flag.Int("coeffs", 1, "cluster mode: wavelet coefficients per node (must match swatd)")
		minLevel = flag.Int("minlevel", 0, "cluster mode: minimum tree level (must match swatd)")
	)
	flag.Parse()
	if *conns <= 0 || *batch <= 0 || *batch > wire.MaxBatchValues || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "swatload: -conns, -batch, and -duration must be positive (batch within the frame limit)")
		os.Exit(2)
	}
	proto := "v2"
	var clusterCfg cluster.Config
	if *fleet != "" {
		if *nstreams <= 0 {
			fmt.Fprintln(os.Stderr, "swatload: -streams must be positive")
			os.Exit(2)
		}
		clusterCfg = cluster.Config{
			Nodes:        strings.Split(*fleet, ","),
			WindowSize:   *window,
			Coefficients: *coeffs,
			MinLevel:     *minLevel,
			Seed:         *seed,
			VNodes:       *vnodes,
			// stream.Uniform's range: RollUp aligns skewed streams and
			// stands in for refused ones only within a declared range.
			ValueLo: 0,
			ValueHi: 100,
		}
		proto = "cluster"
	}

	deadline := time.Now().Add(*duration)
	start := time.Now()
	all := make([]connStats, *conns)
	var wg sync.WaitGroup
	for i := 0; i < *conns; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if proto == "cluster" {
				all[i] = runCluster(clusterCfg, i, *nstreams, *batch, *seed+int64(i)*1000, deadline)
			} else {
				all[i] = runV2(*addr, *batch, *seed+int64(i), deadline)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := result{Proto: proto, Conns: *conns, Batch: *batch, Seconds: elapsed}
	var lats []time.Duration
	for i, cs := range all {
		if cs.err != nil {
			log.Fatalf("swatload: conn %d: %v", i, cs.err)
		}
		res.Msgs += cs.msgs
		res.Values += cs.values
		res.Retries += cs.retries
		lats = append(lats, cs.lats...)
	}
	if proto == "cluster" {
		res.Nodes = len(clusterCfg.Nodes)
		res.Streams = *conns * *nstreams
		res.PointAllMillis = all[0].pointAllMS
		res.RollUpMillis = all[0].rollUpMS
		// Per-node ingest accounting, for load-balance analysis.
		var total uint64
		for _, a := range clusterCfg.Nodes {
			nl := nodeLoad{Addr: a}
			if c, err := wire.DialBinary(a); err == nil {
				if st, err := c.Stats(); err == nil {
					nl.EnqueuedValues = st.EnqueuedValues
				}
				if e, err := c.RingEpoch(); err == nil {
					nl.RingEpoch = e
				}
				c.Close()
			}
			total += nl.EnqueuedValues
			res.PerNode = append(res.PerNode, nl)
		}
		for i := range res.PerNode {
			if total > 0 {
				res.PerNode[i].Share = float64(res.PerNode[i].EnqueuedValues) / float64(total)
			}
		}
		if st := all[0].clStats; st != nil {
			res.RingEpoch = st.Epoch
			if st.Migrating {
				res.Migration = &migrationState{
					FromEpoch: st.FromEpoch, ToEpoch: st.ToEpoch,
					MovedStreams: st.MovedStreams, TotalMoves: st.TotalMoves,
					CurrentStream: st.CurrentStream,
				}
			}
		}
	}
	res.MsgsPerSec = float64(res.Msgs) / elapsed
	res.ValuesPerSec = float64(res.Values) / elapsed
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.P50Micros = percentile(lats, 0.50)
	res.P99Micros = percentile(lats, 0.99)

	if proto == "v2" {
		c, err := wire.DialBinary(*addr)
		if err == nil {
			if st, err := c.Stats(); err == nil {
				res.EnqueuedValues = st.EnqueuedValues
				res.ShedValues = st.ShedValues
			}
			c.Close()
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatalf("swatload: %v", err)
		}
		return
	}
	fmt.Printf("swatload %s: %d conns, %d values/msg, %.1fs\n", res.Proto, res.Conns, res.Batch, res.Seconds)
	if res.Nodes > 0 {
		fmt.Printf("  %d nodes, %d named streams, ring epoch %d\n", res.Nodes, res.Streams, res.RingEpoch)
		if m := res.Migration; m != nil {
			fmt.Printf("  migration in flight: epoch %d -> %d, %d/%d streams moved (current %q)\n",
				m.FromEpoch, m.ToEpoch, m.MovedStreams, m.TotalMoves, m.CurrentStream)
		}
		for _, nl := range res.PerNode {
			fmt.Printf("    %s: %d values (%.0f%% of the fleet), epoch %d\n", nl.Addr, nl.EnqueuedValues, nl.Share*100, nl.RingEpoch)
		}
		fmt.Printf("  scatter-gather: PointAll %.1fms, RollUp %.1fms over %d streams\n", res.PointAllMillis, res.RollUpMillis, *nstreams)
	}
	fmt.Printf("  %d msgs (%.0f msgs/s), %d values (%.0f values/s)\n", res.Msgs, res.MsgsPerSec, res.Values, res.ValuesPerSec)
	fmt.Printf("  ingest latency p50 %.0fµs, p99 %.0fµs over %d samples\n", res.P50Micros, res.P99Micros, len(lats))
	if res.Retries > 0 {
		fmt.Printf("  %d connection retries during the run\n", res.Retries)
	}
	if res.ShedValues > 0 {
		fmt.Printf("  server shed %d values (enqueued %d) — consider -ingest-queue or block policy\n", res.ShedValues, res.EnqueuedValues)
	}
}
