//go:build linux

// Command bench is the repository's benchmark: four workloads over the
// real stack (tree → multi → wire v2 → cluster → durable), every answer
// checked against an in-process twin, end-to-end metrics with tracing
// off and per-layer metrics from a traced second pass. BENCHMARK.json
// at the repository root states its contract; README.md in this
// directory explains the workloads and metrics.
//
//	bash bench/run.sh --workload ingest-fleet --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -repeat 5        # noise mode: spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/streamsum/swat/internal/cluster"
)

// buildDir holds everything building and running leave behind; the
// root .gitignore names it.
const buildDir = ".bench_build"

// sizes are the workloads' dimensions: full for a measured run, short
// for bench_test.go.
type sizes struct {
	ingestStreams  int // per generator
	gatherStreams  int
	reshardCycles  int // at least this many join+leave cycles
	durableStreams int
	durableCycles  int
	setups         int // set-ups per run; their median is setup_s
}

var fullSize = sizes{
	ingestStreams:  128,
	gatherStreams:  2048,
	reshardCycles:  2,
	durableStreams: 256,
	durableCycles:  8,
	setups:         5,
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	swatd    string // "" runs nodes in-process
	workDir  string // scratch, removed on exit
	outDir   string // traces
	size     sizes
	corrupt  bool // bench_test.go: falsify one answer, the checker must notice
}

// phase is a share of the run's measured seconds.
func (c runConfig) phase(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

func (c runConfig) tracePath() string {
	return filepath.Join(c.outDir, "trace-"+c.workload+".json")
}

// setUp sets the workload up cfg.size.setups times, tearing down all
// but the last, records the median time as setup_s and returns the
// last environment. The traced pass reports no setup_s and sets up
// once.
func setUp[E interface{ close() }](cfg runConfig, r *run, once func(runConfig, *run) (E, error)) (E, error) {
	n := cfg.size.setups
	if cfg.trace {
		n = 1
	}
	var took []float64
	for {
		begin := time.Now()
		env, err := once(cfg, r)
		if err != nil {
			return env, err
		}
		took = append(took, time.Since(begin).Seconds())
		if len(took) == n {
			r.set("setup_s", median(took))
			return env, nil
		}
		env.close()
	}
}

// childSet tracks live child processes so that every exit path,
// signals included, reaps them.
type childSet struct {
	mu   sync.Mutex
	cmds map[*exec.Cmd]struct{}
}

var children = childSet{cmds: make(map[*exec.Cmd]struct{})}

func (c *childSet) add(cmd *exec.Cmd) {
	c.mu.Lock()
	c.cmds[cmd] = struct{}{}
	c.mu.Unlock()
}

func (c *childSet) remove(cmd *exec.Cmd) {
	c.mu.Lock()
	delete(c.cmds, cmd)
	c.mu.Unlock()
}

func (c *childSet) killAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for cmd := range c.cmds {
		cmd.Process.Kill()
		cmd.Process.Wait() // reap; a concurrent cmd.Wait loses the race harmlessly
	}
}

// statsPoller samples every node's ingest queue depth once a second.
type statsPoller struct {
	stopc chan struct{}
	done  chan int
}

func startStatsPoller(nodeAddrs []string) *statsPoller {
	p := &statsPoller{stopc: make(chan struct{}), done: make(chan int, 1)}
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		deepest := 0
		for {
			select {
			case <-p.stopc:
				p.done <- deepest
				return
			case <-tick.C:
				for _, a := range nodeAddrs {
					if st, err := nodeStats(a); err == nil && st.QueueLen > deepest {
						deepest = st.QueueLen
					}
				}
			}
		}
	}()
	return p
}

// stop ends the poller and returns the deepest queue it saw.
func (p *statsPoller) stop() int {
	close(p.stopc)
	return <-p.done
}

// setPoolStats adds one client's connection-pool churn to the run.
func setPoolStats(r *run, c *cluster.Client) {
	var dials, retries, discards uint64
	for _, ps := range c.Pools() {
		dials += ps.Dials
		retries += ps.Retries
		discards += ps.Discards
	}
	r.set("wire.pool_dials", r.get("wire.pool_dials")+float64(dials))
	r.set("wire.pool_retries", r.get("wire.pool_retries")+float64(retries))
	r.set("wire.pool_discards", r.get("wire.pool_discards")+float64(discards))
}

// setSwatdStats reports stopped children: median start-up, summed CPU
// and peak RSS.
func setSwatdStats(r *run, nodes []*node) {
	var starts []float64
	var cpu time.Duration
	for _, n := range nodes {
		starts = append(starts, n.startMS)
		cpu += n.cpu
	}
	r.set("swatd.start_ms", median(starts))
	r.set("swatd.cpu_s", cpu.Seconds())
	r.set("swatd.rss_mb", fleetRSS(nodes))
}

// provenance stamps a result with where and on what it was measured.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Host       string `json:"host"`
	Date       string `json:"date"`
}

func stamp() provenance {
	p := provenance{
		Commit:     "unknown", // the driver's checkout is not a git repository
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	p.Host, _ = os.Hostname()
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.Dirty = len(st) > 0
		}
	}
	return p
}

// passResult is one (workload, pass) outcome in the result file and
// the trajectory.
type passResult struct {
	Workload   string                    `json:"workload"`
	Trace      bool                      `json:"trace"`
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Correct    bool                      `json:"correct"`
	Attempted  int64                     `json:"attempted"`
	Failed     int64                     `json:"failed"`
	Mismatches int64                     `json:"answer_mismatches"`
	Notes      []string                  `json:"notes,omitempty"`
	Metrics    map[string]map[string]any `json:"metrics"`
	Timings    map[string]timing         `json:"timings"`
	WallS      float64                   `json:"wall_s"`
}

// runPass runs one workload once, traced or not, and prints its
// metrics by name and unit.
func runPass(cfg runConfig) (passResult, error) {
	w := findWorkload(cfg.workload)
	r := newRun()
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		for _, d := range perLayer {
			r.set(d.Name, 0) // a layer the workload never calls costs it nothing
		}
	}
	begin := time.Now()
	if err := w.run(cfg, r); err != nil {
		return passResult{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	attempted, failed := r.attempted.Load(), r.failed.Load()
	if cfg.trace {
		r.set("failed_ops_share", 100*float64(failed)/float64(attempted))
		r.set("answer_mismatches", float64(r.mismatches.Load()))
	}
	metrics, err := r.emitted(defs)
	if err != nil {
		return passResult{}, err
	}
	res := passResult{
		Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds,
		Correct: r.correct(), Attempted: attempted, Failed: failed,
		Mismatches: r.mismatches.Load(), Notes: r.notes,
		Metrics: metrics, Timings: r.timings, WallS: time.Since(begin).Seconds(),
	}
	pass := "end-to-end"
	if cfg.trace {
		pass = "per-layer"
	}
	fmt.Printf("# %s seed=%d %s: attempted=%d failed=%d answer_mismatches=%d wall=%.1fs\n",
		cfg.workload, cfg.seed, pass, attempted, failed, res.Mismatches, res.WallS)
	for _, d := range defs {
		fmt.Printf("%-36s %16.4f %s\n", d.Name, metrics[d.Name]["value"], d.Unit)
	}
	names := make([]string, 0, len(r.timings))
	for name := range r.timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := r.timings[name]
		fmt.Printf("  timing %-28s median %.1f us, %d samples", name, t.MedianUS, t.Count)
		if t.TailPct > 0 {
			fmt.Printf(", p%g %.1f us", t.TailPct, t.TailUS)
		}
		fmt.Println()
	}
	for _, n := range res.Notes {
		fmt.Printf("  mismatch: %s\n", n)
	}
	return res, nil
}

// contractLine is the last line of standard output when one workload
// is run: exactly the keys the driver reads.
func contractLine(res passResult) string {
	b, _ := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	return string(b)
}

// appendTrajectory adds one line per invocation to the perf history.
func appendTrajectory(prov provenance, results []passResult) error {
	f, err := os.OpenFile(filepath.Join(buildDir, "trajectory.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(map[string]any{"provenance": prov, "results": results})
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeResult(path string, prov provenance, results []passResult) error {
	body, _ := json.MarshalIndent(map[string]any{
		"provenance": prov,
		"results":    results,
		"claim":      nil, // this benchmark measures; a claim is a later issue's
	}, "", "  ")
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "generator seed: same seed, same inputs")
		seconds  = flag.Float64("seconds", 25, "measured seconds per run")
		trace    = flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass; both")
		out      = flag.String("out", filepath.Join(buildDir, "result.json"), "result file")
		repeat   = flag.Int("repeat", 0, "noise mode: run this many invocations (seeds seed, seed+1, ...) and print each metric's spread against its bound")
		swatd    = flag.String("swatd", filepath.Join(buildDir, "bin", "swatd"), "swatd binary built from the commit under test")
		role     = flag.String("role", "", "internal: durable-writer")
		dir      = flag.String("dir", "", "internal: durable-writer data directory")
		streams  = flag.Int("streams", 0, "internal: durable-writer stream count")
	)
	flag.Parse()
	if *role == "durable-writer" {
		if err := durableWriter(*dir, *seed, *streams); err != nil {
			fmt.Fprintln(os.Stderr, "bench: durable writer:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(realMain(*workload, *seed, *seconds, *trace, *out, *repeat, *swatd))
}

func realMain(workload string, seed int64, seconds float64, trace, out string, repeat int, swatd string) int {
	var passes []bool
	switch trace {
	case "0", "false":
		passes = []bool{false}
	case "1", "true":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace %q is not 0, 1 or both\n", trace)
		return 2
	}
	names := []string{workload}
	if workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if findWorkload(workload) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workload)
		return 2
	}
	if seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	if _, err := os.Stat(swatd); err != nil {
		fmt.Fprintf(os.Stderr, "bench: no swatd at %s (bench/run.sh builds it): %v\n", swatd, err)
		return 2
	}
	workDir := filepath.Join(buildDir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cleanup := func() {
		children.killAll()
		os.RemoveAll(workDir)
	}
	defer cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()

	base := runConfig{seed: seed, seconds: seconds, swatd: swatd, workDir: workDir, outDir: buildDir, size: fullSize}
	if repeat > 0 {
		return noiseMode(base, names, repeat)
	}
	prov := stamp()
	var results []passResult
	code := 0
	for _, name := range names {
		for _, traced := range passes {
			cfg := base
			cfg.workload, cfg.trace = name, traced
			res, err := runPass(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			results = append(results, res)
		}
	}
	if err := writeResult(out, prov, results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := appendTrajectory(prov, results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if len(results) == 1 {
		fmt.Println(contractLine(results[0]))
	} else {
		fmt.Printf("# %d passes, result in %s, \"claim\": null\n", len(results), out)
	}
	return code
}
