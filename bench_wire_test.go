package swat_test

// Wire-protocol benchmarks over real loopback TCP for the binary data
// plane. One op is one message (one data frame, or one acknowledged or
// query round trip), so ns/op is per-message cost and the reported
// msgs/s columns compare directly.
// `make bench-wire` digests these into BENCH_wire.{txt,json}; the v2
// ingest rows must show 0 allocs/op — the steady-state zero-copy claim
// the //swat:noalloc annotations make statically.

import (
	"sort"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/wire"
)

// startBenchServer serves a fresh tree on loopback for one benchmark.
func startBenchServer(b *testing.B) string {
	b.Helper()
	srv, err := wire.NewServer(core.Options{WindowSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	b.Cleanup(func() { srv.Close() })
	return addr.String()
}

// benchV2Ingest streams one data frame of `batch` values per op, then
// bounds delivery with a final ping inside the timed region so the
// server has applied (or shed-counted) every frame the clock covers.
func benchV2Ingest(b *testing.B, batch int) {
	addr := startBenchServer(b)
	c, err := wire.DialBinary(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	vals := make([]float64, batch)
	for i := range vals {
		vals[i] = float64(i) * 0.25
	}
	// Warm client buffers and the server's batch free-list.
	for i := 0; i < 4; i++ {
		if err := c.FeedBatch(vals); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Ping(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.FeedBatch(vals); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Ping(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "values/s")
}

func BenchmarkWireV2Ingest16(b *testing.B)  { benchV2Ingest(b, 16) }
func BenchmarkWireV2Ingest256(b *testing.B) { benchV2Ingest(b, 256) }

// BenchmarkWireV2IngestLatency measures acknowledged ingest: every op
// is a data frame followed by a ping, so the sample distribution is
// real frame-accepted latency under the block policy, not just send
// cost. p99 is reported alongside the mean ns/op.
func BenchmarkWireV2IngestLatency(b *testing.B) {
	addr := startBenchServer(b)
	c, err := wire.DialBinary(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) * 0.25
	}
	lats := make([]time.Duration, 0, b.N)
	if _, err := c.Ping(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := c.FeedBatch(vals); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Ping(); err != nil {
			b.Fatal(err)
		}
		lats = append(lats, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[int(0.99*float64(len(lats)-1))]
	b.ReportMetric(float64(p99)/float64(time.Microsecond), "p99-us")
}

// BenchmarkWireV2QueryBatch answers four range queries per frame
// against a full window.
func BenchmarkWireV2QueryBatch(b *testing.B) {
	addr := startBenchServer(b)
	c, err := wire.DialBinary(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = float64(i%19) * 0.5
	}
	for i := 0; i < 8; i++ {
		if err := c.FeedBatch(vals); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Ping(); err != nil {
		b.Fatal(err)
	}
	var qs []query.Query
	for _, span := range []int{8, 32, 128, 512} {
		q, err := query.New(query.Exponential, 0, span, 0)
		if err != nil {
			b.Fatal(err)
		}
		qs = append(qs, q)
	}
	dst := make([]float64, len(qs))
	if err := c.QueryBatch(qs, dst); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.QueryBatch(qs, dst); err != nil {
			b.Fatal(err)
		}
	}
}
