// Command swatd serves SWAT stream summaries over TCP.
//
// Usage:
//
//	swatd -addr 127.0.0.1:7467 -window 1024
//	swatd -addr :7467 -window 256 -source weather -rate 100
//	swatd -addr :7467 -data-dir /var/lib/swatd
//
// The server keeps one tree per stream, all of one geometry
// (-window/-coeffs/-minlevel), in one multi.Monitor: a default stream,
// which the unnamed frames address and -source can generate, plus the
// named streams internal/cluster shards over, each registered on its
// first frame. With -data-dir every stream is crash-safe: its arrivals
// are write-ahead logged in <dir>/s-<name>/ (the default stream in
// <dir>/s-/) before they are applied, checkpoints rotate automatically,
// and startup recovers every stream the directory holds (see
// internal/durable); older single-tree directories are not migrated.
// SIGINT/SIGTERM shut down gracefully: queued batches are applied,
// standing queries get a final flush, and every store a final
// checkpoint. Query with cmd/swatquery or any client speaking the binary
// protocol of internal/wire (wire.DialBinary); cmd/swatload drives it at
// line rate, with backpressure set by -ingest-queue and -ingest-policy.
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
		window   = flag.Int("window", 1024, "sliding-window size N of every stream's tree (power of two)")
		coeffs   = flag.Int("coeffs", 1, "wavelet coefficients per tree node (power of two)")
		minLevel = flag.Int("minlevel", 0, "drop tree levels below this (space/precision trade-off)")
		source   = flag.String("source", "", "self-generated default stream: weather | uniform | walk (empty: clients feed data)")
		rate     = flag.Float64("rate", 10, "self-generated values per second")
		seed     = flag.Int64("seed", 1, "seed for the self-generated stream")
		dataDir  = flag.String("data-dir", "", "durable mode: one WAL + checkpoint directory per stream under this one; every stream is recovered at startup and every arrival is logged before it is applied")
		fsync    = flag.String("fsync", "interval", "WAL fsync policy in durable mode: always | interval | never")
		queue    = flag.Int("ingest-queue", 256, "binary data plane: pending-batch bound of the ingest queue")
		policy   = flag.String("ingest-policy", "block", "binary data plane: full-queue policy, block | shed")
		_        = flag.Bool("streams", false, "ignored: every swatd serves named streams (kept so existing command lines still start)")
	)
	flag.Parse()

	srv, err := wire.NewServer(core.Options{WindowSize: *window, Coefficients: *coeffs, MinLevel: *minLevel})
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
	monOpts := multi.Options{WindowSize: *window, Coefficients: *coeffs, MinLevel: *minLevel}
	if *dataDir != "" {
		monOpts.DataDir = *dataDir
		switch *fsync {
		case "always":
			monOpts.Durable.Sync = durable.SyncAlways
		case "interval":
			monOpts.Durable.Sync = durable.SyncInterval
		case "never":
			monOpts.Durable.Sync = durable.SyncNever
		default:
			fmt.Fprintf(os.Stderr, "swatd: unknown -fsync policy %q\n", *fsync)
			os.Exit(2)
		}
	}
	mon, err := multi.New(monOpts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swatd: %v\n", err)
		os.Exit(2)
	}
	if err := srv.UseMonitor(mon); err != nil {
		fmt.Fprintf(os.Stderr, "swatd: %v\n", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		named, err := mon.AddStored()
		if err != nil {
			fmt.Fprintf(os.Stderr, "swatd: %v\n", err)
			os.Exit(1)
		}
		info, _ := mon.Recovery("") // cannot fail: UseMonitor registered ""
		log.Printf("swatd: durable at %s: default stream %s; %d named streams recovered", *dataDir, info, len(named))
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swatd: %v\n", err)
		os.Exit(1)
	}
	log.Printf("swatd: serving N=%d k=%d minLevel=%d on %s", *window, *coeffs, *minLevel, bound)

	var (
		src  stream.Source
		tick <-chan time.Time // nil, so never ready, without -source
	)
	if *source != "" {
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
		tick = time.NewTicker(time.Duration(float64(time.Second) / *rate)).C
		log.Printf("swatd: generating %s stream at %.1f values/s", *source, *rate)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	for running := true; running; {
		select {
		case err := <-served:
			log.Fatalf("swatd: %v", err) // Serve returns on its own only when accept fails
		case sig := <-sigs:
			log.Printf("swatd: %v: shutting down", sig)
			running = false
		case <-tick:
			if err := srv.Feed(src.Next()); err != nil {
				log.Printf("swatd: feed: %v", err)
			}
		}
	}
	// Close cuts the clients, applies every queued batch and flushes
	// standing queries; only then may the monitor close, which
	// checkpoints every durable stream so restart recovery is a snapshot
	// load, not a log replay.
	if err := srv.Close(); err != nil {
		log.Printf("swatd: shutdown: %v", err)
	}
	if err := mon.Close(); err != nil {
		log.Fatalf("swatd: closing monitor: %v", err)
	}
}
