// Command swatsim runs a configurable distributed-replication simulation
// and prints the message cost of the chosen protocol(s) — the knobs
// behind the paper's §5 experiments, exposed for exploration.
//
// Usage:
//
//	swatsim -clients 14 -window 64 -data real -td 2 -tq 1 -precision 20
//	swatsim -topology chain -clients 4 -protocol asr,dc
//	swatsim -duration 5000 -phase 50 -querylen 16
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"github.com/streamsum/swat/internal/aps"
	"github.com/streamsum/swat/internal/dc"
	"github.com/streamsum/swat/internal/netsim"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/replication"
	"github.com/streamsum/swat/internal/sim"
	"github.com/streamsum/swat/internal/stream"
)

type protocol interface {
	Name() string
	OnData(v float64)
	OnQuery(at netsim.NodeID, q query.Query) (float64, error)
	OnPhaseEnd()
	Messages() *netsim.Counter
}

func main() {
	var (
		topology  = flag.String("topology", "binary", "network shape: binary | chain | random")
		clients   = flag.Int("clients", 6, "number of client nodes (source excluded)")
		window    = flag.Int("window", 64, "sliding-window size N (power of two)")
		data      = flag.String("data", "real", "stream: real | synthetic")
		td        = flag.Float64("td", 2, "data arrival period")
		tq        = flag.Float64("tq", 1, "per-client query period")
		phase     = flag.Float64("phase", 25, "SWAT-ASR phase length")
		duration  = flag.Float64("duration", 2000, "measured simulated time after warm-up")
		precision = flag.Float64("precision", 20, "query precision requirement δ")
		queryLen  = flag.Int("querylen", 8, "maximum query length (linear random queries)")
		protoList = flag.String("protocol", "asr,dc,aps", "comma-separated protocols: asr | dc | aps")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	top, err := buildTopology(*topology, *clients, *seed)
	if err != nil {
		fatal(err)
	}
	names := strings.Split(*protoList, ",")
	fmt.Printf("topology=%s clients=%d window=%d data=%s Td=%g Tq=%g δ=%g duration=%g\n\n",
		*topology, *clients, *window, *data, *td, *tq, *precision, *duration)
	fmt.Printf("%-9s %10s %10s   %s\n", "protocol", "messages", "msg/query", "by kind")
	for _, name := range names {
		s := sim.New()
		p, err := buildProtocol(strings.TrimSpace(name), top, *window, *data)
		if err != nil {
			fatal(err)
		}
		msgs, queries, err := run(p, top, s, runConfig{
			window: *window, data: *data, td: *td, tq: *tq, phase: *phase,
			duration: *duration, precision: *precision, queryLen: *queryLen, seed: *seed,
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", p.Name(), err))
		}
		perQuery := 0.0
		if queries > 0 {
			perQuery = float64(msgs) / float64(queries)
		}
		var kinds []string
		for _, k := range p.Messages().Kinds() {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, p.Messages().Kind(k)))
		}
		fmt.Printf("%-9s %10d %10.2f   %s\n", p.Name(), msgs, perQuery, strings.Join(kinds, " "))
	}
}

func buildTopology(shape string, clients int, seed int64) (*netsim.Topology, error) {
	if clients < 1 {
		return nil, fmt.Errorf("swatsim: need at least 1 client")
	}
	switch shape {
	case "binary":
		return netsim.CompleteBinaryTree(clients + 1)
	case "chain":
		return netsim.Chain(clients + 1)
	case "random":
		return netsim.RandomTree(seed, clients+1)
	default:
		return nil, fmt.Errorf("swatsim: unknown topology %q", shape)
	}
}

// valueRange matches the data range of the built-in sources, used by
// DC's tolerance levels.
func valueRange(data string) (lo, hi float64) {
	if data == "real" {
		return 0, 50
	}
	return 0, 100
}

func buildProtocol(name string, top *netsim.Topology, window int, data string) (protocol, error) {
	switch name {
	case "asr":
		return replication.New(top, window)
	case "dc":
		lo, hi := valueRange(data)
		return dc.New(top, dc.Options{WindowSize: window, ValueLo: lo, ValueHi: hi})
	case "aps":
		return aps.New(top, aps.Options{WindowSize: window})
	default:
		return nil, fmt.Errorf("swatsim: unknown protocol %q", name)
	}
}

type runConfig struct {
	window    int
	data      string
	td, tq    float64
	phase     float64
	duration  float64
	precision float64
	queryLen  int
	seed      int64
}

func run(p protocol, top *netsim.Topology, s *sim.Simulator, cfg runConfig) (msgs, queries uint64, err error) {
	var src stream.Source
	switch cfg.data {
	case "real":
		src = stream.Weather(cfg.seed)
	case "synthetic":
		src = stream.Uniform(cfg.seed)
	default:
		return 0, 0, fmt.Errorf("unknown dataset %q", cfg.data)
	}
	setTime := func() {
		if ta, ok := p.(interface{ SetTime(float64) }); ok {
			ta.SetTime(s.Now())
		}
	}
	var runErr error
	if _, err := s.Every(0, cfg.td, func() {
		setTime()
		p.OnData(src.Next())
	}); err != nil {
		return 0, 0, err
	}
	warm := cfg.td * float64(cfg.window+1)
	rng := rand.New(rand.NewSource(cfg.seed + 7))
	var measured uint64
	measuring := false
	for ci, id := range top.BFSOrder() {
		if id == top.Root() {
			continue
		}
		id := id
		gen, err := query.NewGenerator(query.Linear, query.Random, cfg.window, cfg.queryLen, cfg.precision, cfg.seed+int64(ci)*101)
		if err != nil {
			return 0, 0, err
		}
		if _, err := s.Every(warm+cfg.tq*rng.Float64(), cfg.tq, func() {
			setTime()
			if _, qerr := p.OnQuery(id, gen.Next()); qerr != nil && runErr == nil {
				runErr = qerr
			}
			if measuring {
				measured++
			}
		}); err != nil {
			return 0, 0, err
		}
	}
	if _, err := s.Every(warm, cfg.phase, func() {
		setTime()
		p.OnPhaseEnd()
	}); err != nil {
		return 0, 0, err
	}
	start := warm + 2*cfg.phase
	s.RunUntil(start)
	if runErr != nil {
		return 0, 0, runErr
	}
	p.Messages().Reset()
	measuring = true
	s.RunUntil(start + cfg.duration)
	if runErr != nil {
		return 0, 0, runErr
	}
	return p.Messages().Total(), measured, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "swatsim: %v\n", err)
	os.Exit(1)
}
