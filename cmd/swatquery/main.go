// Command swatquery queries a running swatd server.
//
// Usage:
//
//	swatquery -addr 127.0.0.1:7467 stats
//	swatquery point -age 3
//	swatquery ip -kind exponential -start 0 -len 16
//	swatquery range -center 22 -radius 3 -from 0 -to 63
//	swatquery feed -value 17.5
//	swatquery summary -out cpu.swsm
//	swatquery merge -with 10.0.0.2:7467,10.0.0.3:7467 -lo 0 -hi 1 -age 5
//	swatquery epoch
//	swatquery epoch -set 3
//
// The subcommand selects the operation; flags after it configure it.
// Every subcommand speaks the binary protocol of internal/wire. point
// and ip are batched queries of one query each; range fetches the
// server tree's summary and answers locally from the rebuilt tree;
// feed streams one value and waits until the server has applied it.
// summary fetches the mergeable summary, merge rolls up the summaries
// of several servers locally — the distributed-roll-up flow of
// internal/core/merge.go driven from the command line — and epoch reads
// (or, with -set, fences forward) the server's ring epoch, the
// placement version live resharding cuts over on.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/wire"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: swatquery [-addr host:port] <stats|point|ip|range|feed|summary|merge|epoch> [flags]
  stats                                  show server tree state
  point -age N                           point query
  ip    -kind exponential|linear -start A -len M [-precision D]
  range -center C -radius R -from A -to B
  feed  -value V                         push one stream value
  summary [-out FILE]                    fetch the mergeable summary
  merge -with A[,B...] [-lo X -hi Y] [-age N]
                                         merge servers' summaries locally;
                                         -lo/-hi declare the value range
                                         needed to bound skewed merges
  epoch [-set N]                         read the server's ring epoch, or
                                         fence it forward to N;
                                         epochs only ever advance`)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7467", "swatd address")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	cmd := flag.Arg(0)
	args := flag.Args()[1:]

	switch cmd {
	case "summary":
		fs := flag.NewFlagSet("summary", flag.ExitOnError)
		out := fs.String("out", "", "write the canonical encoded frame to this file")
		parse(fs, args)
		runSummary(*addr, *out)
		return
	case "merge":
		fs := flag.NewFlagSet("merge", flag.ExitOnError)
		with := fs.String("with", "", "comma-separated addresses to merge with")
		lo := fs.Float64("lo", 0, "declared stream value lower bound")
		hi := fs.Float64("hi", 0, "declared stream value upper bound")
		age := fs.Int("age", -1, "answer a bounded point query at this age after merging")
		parse(fs, args)
		if *with == "" {
			fatal(fmt.Errorf("merge needs -with"))
		}
		runMerge(append([]string{*addr}, strings.Split(*with, ",")...), *lo, *hi, *age)
		return
	case "epoch":
		fs := flag.NewFlagSet("epoch", flag.ExitOnError)
		set := fs.Uint64("set", 0, "fence the server's ring epoch forward to this value")
		parse(fs, args)
		runEpoch(*addr, *set)
		return
	}

	c, err := wire.DialBinary(*addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	// Bound every round trip below, so a hung server cannot park the
	// command.
	if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		fatal(err)
	}

	switch cmd {
	case "stats":
		st, err := c.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("window=%d nodes=%d arrivals=%d ready=%v\n", st.Window, st.Nodes, st.Arrivals, st.Ready)
	case "point":
		fs := flag.NewFlagSet("point", flag.ExitOnError)
		age := fs.Int("age", 0, "age of the value (0 = most recent)")
		parse(fs, args)
		fmt.Printf("%g\n", answer(c, query.Query{Ages: []int{*age}, Weights: []float64{1}}))
	case "ip":
		fs := flag.NewFlagSet("ip", flag.ExitOnError)
		kindName := fs.String("kind", "exponential", "weight family: exponential | linear")
		start := fs.Int("start", 0, "starting age")
		length := fs.Int("len", 8, "query length")
		precision := fs.Float64("precision", 0, "precision requirement δ")
		parse(fs, args)
		var kind query.Kind
		switch *kindName {
		case "exponential":
			kind = query.Exponential
		case "linear":
			kind = query.Linear
		default:
			fatal(fmt.Errorf("unknown kind %q", *kindName))
		}
		q, err := query.New(kind, *start, *length, *precision)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%g\n", answer(c, q))
	case "range":
		fs := flag.NewFlagSet("range", flag.ExitOnError)
		center := fs.Float64("center", 0, "value center")
		radius := fs.Float64("radius", 1, "value radius")
		from := fs.Int("from", 0, "newest age")
		to := fs.Int("to", 0, "oldest age")
		parse(fs, args)
		s, err := c.FetchSummary()
		if err != nil {
			fatal(err)
		}
		tr, err := core.FromSummary(s)
		if err != nil {
			fatal(err)
		}
		matches, err := tr.RangeQuery(*center, *radius, *from, *to)
		if err != nil {
			fatal(err)
		}
		for _, m := range matches {
			fmt.Printf("age=%d value=%g\n", m.Age, m.Value)
		}
		fmt.Fprintf(os.Stderr, "%d match(es)\n", len(matches))
	case "feed":
		fs := flag.NewFlagSet("feed", flag.ExitOnError)
		value := fs.Float64("value", 0, "stream value to push")
		parse(fs, args)
		fmt.Printf("arrivals=%d\n", feed(c, *value))
	default:
		usage()
	}
}

// answer evaluates one query on the server.
func answer(c *wire.BinClient, q query.Query) float64 {
	var v [1]float64
	if err := c.QueryBatch([]query.Query{q}, v[:]); err != nil {
		fatal(err)
	}
	return v[0]
}

// feed streams one value and polls stats until the default stream has
// applied it (or counted it shed), returning the arrival count.
func feed(c *wire.BinClient, v float64) int64 {
	before, err := c.Stats()
	if err != nil {
		fatal(err)
	}
	if err := c.FeedBatch([]float64{v}); err != nil {
		fatal(err)
	}
	if _, err := c.Ping(); err != nil {
		fatal(err)
	}
	for {
		st, err := c.Stats()
		if err != nil {
			fatal(err)
		}
		switch {
		case st.Arrivals > before.Arrivals:
			return st.Arrivals
		case st.ShedValues > before.ShedValues || st.IngestErrors > before.IngestErrors:
			fatal(fmt.Errorf("server did not apply the value (shed %d, ingest errors %d)", st.ShedValues, st.IngestErrors))
		}
		time.Sleep(time.Millisecond)
	}
}

// fetchSummary pulls one server's summary.
func fetchSummary(addr string) (*core.Summary, error) {
	c, err := wire.DialBinary(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.FetchSummary()
}

func runSummary(addr, out string) {
	s, err := fetchSummary(addr)
	if err != nil {
		fatal(err)
	}
	valid := 0
	for _, nd := range s.Nodes {
		if nd.Valid {
			valid++
		}
	}
	fmt.Printf("window=%d coefficients=%d minlevel=%d arrivals=%d streams=%d nodes=%d/%d taint=%d\n",
		s.WindowSize, s.Coefficients, s.MinLevel, s.Arrivals, s.Streams, valid, len(s.Nodes), len(s.Taint))
	if out == "" {
		return
	}
	tr, err := core.FromSummary(s)
	if err != nil {
		fatal(err)
	}
	frame := tr.AppendSummary(nil)
	if err := os.WriteFile(out, frame, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d bytes to %s\n", len(frame), out)
}

// runEpoch reads the server's ring epoch, optionally fencing it
// forward first. A -set below the current epoch is a no-op on the
// server (epochs never regress); the printed value is always the
// server's authoritative answer.
func runEpoch(addr string, set uint64) {
	c, err := wire.DialBinary(addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	if set > 0 {
		e, err := c.SetRingEpoch(set)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("epoch=%d\n", e)
		return
	}
	e, err := c.RingEpoch()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("epoch=%d\n", e)
}

func runMerge(addrs []string, lo, hi float64, age int) {
	// Fold each summary into one accumulator as it arrives
	// (core.Accumulate adds aligned summaries in place), so at most one
	// fetched Summary is live beside it no matter the fleet size — the
	// same streaming fold internal/cluster's RollUp uses over its
	// per-node partials.
	opts := core.MergeOptions{ValueLo: lo, ValueHi: hi}
	var acc *core.Summary
	for _, a := range addrs {
		s, err := fetchSummary(a)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", a, err))
		}
		if acc == nil {
			acc = s
		} else if acc, err = core.Accumulate(acc, s, opts); err != nil {
			fatal(fmt.Errorf("merge %s: %w", a, err))
		}
	}
	tr, err := core.FromSummary(acc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("merged=%d window=%d streams=%d arrivals=%d taint=%d\n",
		len(addrs), tr.WindowSize(), tr.Streams(), tr.Arrivals(), len(tr.TaintSpans()))
	if age < 0 {
		return
	}
	v, bound, err := tr.BoundedPoint(age)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("age=%d value=%g bound=%g\n", age, v, bound)
}

func parse(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "swatquery: %v\n", err)
	os.Exit(1)
}
