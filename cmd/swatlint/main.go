// Command swatlint runs the repo's custom analyzer suite
// (internal/analysis) over Go packages: the syntactic invariants
// (seededrand, noalloc, lockcheck, detmap) plus the flow-sensitive
// concurrency-safety checks built on the CFG/dataflow layer (goroexit,
// deadline, sentinelcheck, lockflow) — the mechanical form of the
// determinism, zero-allocation, lock-discipline, and
// bounded-networking invariants the design docs promise. It is wired
// into `make lint` next to staticcheck and govulncheck.
//
// Usage:
//
//	swatlint [-only name[,name...]] [-json] [-v] [packages]
//
// Packages default to ./... and are analyzed concurrently on a
// bounded worker pool; output order stays deterministic (package load
// order, positions within a package). -json emits one JSON object per
// diagnostic — {"file":...,"line":...,"col":...,"analyzer":...,
// "message":...} — matching the GitHub Actions problem matcher in
// .github/swatlint-matcher.json. -v reports per-analyzer wall time to
// stderr. Exits 1 when any diagnostic survives //lint:allow
// suppression, 2 on operational errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/streamsum/swat/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON object per diagnostic (CI problem-matcher format)")
	verbose := flag.Bool("v", false, "report per-analyzer wall time to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: swatlint [flags] [packages]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nanalyzers:\n")
		for _, a := range analysis.Suite() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-13s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		var picked []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			found := false
			for _, a := range suite {
				if a.Name == name {
					picked = append(picked, a)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "swatlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
		}
		suite = picked
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "swatlint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swatlint: %v\n", err)
		os.Exit(2)
	}

	// Analyze packages concurrently — the flow-sensitive analyzers make
	// per-package work non-trivial — but report in load order so runs
	// are byte-for-byte reproducible.
	type result struct {
		diags []analysis.Diagnostic
		times map[string]time.Duration
		err   error
	}
	results := make([]result, len(pkgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				diags, times, err := analysis.RunSuiteTimed(pkgs[i], suite)
				results[i] = result{diags, times, err}
			}
		}()
	}
	for i := range pkgs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	totals := map[string]time.Duration{}
	failed := false
	for _, res := range results {
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "swatlint: %v\n", res.err)
			os.Exit(2)
		}
		for _, d := range res.diags {
			emit(d, *jsonOut)
			failed = true
		}
		for name, dur := range res.times {
			totals[name] += dur
		}
	}
	for _, d := range checkRequiredDirectives(pkgs) {
		emit(d, *jsonOut)
		failed = true
	}
	if *verbose {
		names := make([]string, 0, len(totals))
		for name := range totals {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return totals[names[i]] > totals[names[j]] })
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "swatlint: %-13s %v\n", name, totals[name].Round(time.Millisecond))
		}
	}
	if failed {
		os.Exit(1)
	}
}

// jsonDiag is the -json line format; field order matches the problem
// matcher's regexp in .github/swatlint-matcher.json.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func emit(d analysis.Diagnostic, asJSON bool) {
	if !asJSON {
		fmt.Printf("%s\n", d)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(jsonDiag{
		File:     d.Pos.Filename,
		Line:     d.Pos.Line,
		Col:      d.Pos.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "swatlint: %v\n", err)
		os.Exit(2)
	}
}

// requiredDeterministic lists the packages whose replayability the
// design docs promise; each must carry the //swat:deterministic
// directive so seededrand and detmap keep applying to it. The
// cross-check stops the directive from being silently dropped.
var requiredDeterministic = []string{
	"internal/codec",
	"internal/durable",
	"internal/netsim",
	"internal/sim",
	"internal/experiments",
	"internal/stream",
	"internal/replication",
	"internal/aps",
	"internal/dc",
	"internal/core",
	"internal/cluster",
}

// requiredServer lists the networked-stack packages that must carry
// //swat:server so goroexit, deadline, and sentinelcheck keep applying
// to them.
var requiredServer = []string{
	"internal/wire",
	"internal/cluster",
	"internal/netsim",
	"internal/multi",
}

func checkRequiredDirectives(pkgs []*analysis.Package) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	out = append(out, checkDirective(pkgs, requiredDeterministic, "//swat:deterministic")...)
	out = append(out, checkDirective(pkgs, requiredServer, "//swat:server")...)
	return out
}

func checkDirective(pkgs []*analysis.Package, required []string, directive string) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, suffix := range required {
		for _, pkg := range pkgs {
			if !strings.HasSuffix(pkg.ImportPath, suffix) {
				continue
			}
			if !hasDirective(pkg, directive) {
				var pos token.Position
				if len(pkg.Syntax) > 0 {
					pos = pkg.Fset.Position(pkg.Syntax[0].Package)
				}
				out = append(out, analysis.Diagnostic{
					Analyzer: "directive",
					Pos:      pos,
					Message:  fmt.Sprintf("package %s is required to carry %s but lacks the directive", pkg.ImportPath, directive),
				})
			}
		}
	}
	return out
}

func hasDirective(pkg *analysis.Package, directive string) bool {
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, directive) {
					return true
				}
			}
		}
	}
	return false
}
