// Command swatd serves a SWAT stream summary over TCP.
//
// Usage:
//
//	swatd -addr 127.0.0.1:7467 -window 1024
//	swatd -addr :7467 -window 256 -source weather -rate 100
//	swatd -addr :7467 -data-dir /var/lib/swatd
//
// With -source set, the server generates its own stream at the given
// rate; otherwise it summarizes only the values clients feed it with
// data frames. With -streams the server also keeps one tree per named
// stream and serves the stream-addressed v2 frames (ingest, point
// queries, summary export) — the node mode internal/cluster shards
// over. With -data-dir set the summary is crash-safe: every
// arrival is write-ahead logged before it is applied, checkpoints
// rotate automatically, and startup recovers the pre-crash state (see
// internal/durable); it is the one way to persist the shared tree.
// SIGINT/SIGTERM shut down gracefully — standing queries get a final
// flush and the store a final checkpoint. Query with cmd/swatquery or
// any client speaking the binary protocol of internal/wire
// (wire.DialBinary); cmd/swatload drives it at line rate, with
// backpressure set by -ingest-queue and -ingest-policy.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/durable"
	"github.com/streamsum/swat/internal/multi"
	"github.com/streamsum/swat/internal/stream"
	"github.com/streamsum/swat/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7467", "listen address")
		window   = flag.Int("window", 1024, "sliding-window size N (power of two)")
		coeffs   = flag.Int("coeffs", 1, "wavelet coefficients per tree node (power of two)")
		minLevel = flag.Int("minlevel", 0, "drop tree levels below this (space/precision trade-off)")
		source   = flag.String("source", "", "self-generated stream: weather | uniform | walk (empty: clients feed data)")
		rate     = flag.Float64("rate", 10, "self-generated values per second")
		seed     = flag.Int64("seed", 1, "seed for the self-generated stream")
		dataDir  = flag.String("data-dir", "", "durable mode: WAL + checkpoint directory; state is recovered at startup and every arrival is logged before it is applied")
		fsync    = flag.String("fsync", "interval", "WAL fsync policy in durable mode: always | interval | never")
		queue    = flag.Int("ingest-queue", 256, "binary data plane: pending-batch bound of the ingest queue")
		policy   = flag.String("ingest-policy", "block", "binary data plane: full-queue policy, block | shed")
		streams  = flag.Bool("streams", false, "cluster node mode: keep one tree per named stream and serve stream-addressed v2 frames")
	)
	flag.Parse()

	srv, err := wire.NewServer(core.Options{
		WindowSize:   *window,
		Coefficients: *coeffs,
		MinLevel:     *minLevel,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "swatd: %v\n", err)
		os.Exit(2)
	}
	if *queue <= 0 {
		fmt.Fprintln(os.Stderr, "swatd: -ingest-queue must be positive")
		os.Exit(2)
	}
	srv.IngestQueue = *queue
	switch *policy {
	case "block":
		srv.Policy = wire.IngestBlock
	case "shed":
		srv.Policy = wire.IngestShed
	default:
		fmt.Fprintf(os.Stderr, "swatd: unknown -ingest-policy %q\n", *policy)
		os.Exit(2)
	}
	var mon *multi.Monitor
	if *streams {
		mon, err = multi.New(multi.Options{
			WindowSize:   *window,
			Coefficients: *coeffs,
			MinLevel:     *minLevel,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "swatd: %v\n", err)
			os.Exit(2)
		}
		if err := srv.UseMonitor(mon); err != nil {
			fmt.Fprintf(os.Stderr, "swatd: %v\n", err)
			os.Exit(2)
		}
		log.Printf("swatd: per-stream node mode: one tree per named stream")
	}
	var store *durable.Store
	if *dataDir != "" {
		var policy durable.SyncPolicy
		switch *fsync {
		case "always":
			policy = durable.SyncAlways
		case "interval":
			policy = durable.SyncInterval
		case "never":
			policy = durable.SyncNever
		default:
			fmt.Fprintf(os.Stderr, "swatd: unknown -fsync policy %q\n", *fsync)
			os.Exit(2)
		}
		store, err = durable.Open(*dataDir, srv.Tree(), durable.Options{Sync: policy})
		if err != nil {
			fmt.Fprintf(os.Stderr, "swatd: %v\n", err)
			os.Exit(1)
		}
		if err := srv.UseStore(store); err != nil {
			fmt.Fprintf(os.Stderr, "swatd: %v\n", err)
			os.Exit(1)
		}
		log.Printf("swatd: durable at %s: %s", *dataDir, store.Recovery())
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swatd: %v\n", err)
		os.Exit(1)
	}
	log.Printf("swatd: serving N=%d k=%d minLevel=%d on %s", *window, *coeffs, *minLevel, bound)

	if *source != "" {
		var src stream.Source
		switch *source {
		case "weather":
			src = stream.Weather(*seed)
		case "uniform":
			src = stream.Uniform(*seed)
		case "walk":
			src = stream.RandomWalk(*seed, 50, 2, 0, 100)
		default:
			fmt.Fprintf(os.Stderr, "swatd: unknown source %q\n", *source)
			os.Exit(2)
		}
		if *rate <= 0 {
			fmt.Fprintln(os.Stderr, "swatd: -rate must be positive")
			os.Exit(2)
		}
		go func() {
			ticker := time.NewTicker(time.Duration(float64(time.Second) / *rate))
			defer ticker.Stop()
			for range ticker.C {
				if err := srv.Feed(src.Next()); err != nil {
					log.Printf("swatd: feed: %v", err)
				}
			}
		}()
		log.Printf("swatd: generating %s stream at %.1f values/s", *source, *rate)
	}

	// Graceful shutdown: stop accepting, flush standing queries, then
	// checkpoint and close the durable store so restart recovery is a
	// snapshot load, not a log replay.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		log.Printf("swatd: %v: shutting down", sig)
		if err := srv.Close(); err != nil {
			log.Printf("swatd: shutdown: %v", err)
		}
	}()

	if err := srv.Serve(); err != nil {
		log.Fatalf("swatd: %v", err)
	}
	if store != nil {
		if err := store.Close(); err != nil {
			log.Fatalf("swatd: closing store: %v", err)
		}
		log.Printf("swatd: store flushed at %d arrivals", store.Arrivals())
	}
	if mon != nil {
		if err := mon.Close(); err != nil {
			log.Fatalf("swatd: closing monitor: %v", err)
		}
	}
}
