// Package experiments regenerates every table and figure of the paper's
// evaluation: the centralized error and running-time studies of §2.7
// (Figs. 4–6), the directory snapshot of Table 1, and the distributed
// replication studies of §5 (Figs. 9–10), plus ablations over SWAT's
// design choices. Each experiment is registered under the paper's
// figure ID and can be run from cmd/swatbench or the top-level
// benchmarks.
//
//swat:deterministic
package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"github.com/streamsum/swat/internal/netsim"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick runs reduced workloads suitable for CI and -bench runs.
	Quick Scale = iota
	// Paper runs the full workloads of the paper (minutes for the
	// histogram-heavy figures).
	Paper
)

// String names the scale.
func (s Scale) String() string {
	if s == Paper {
		return "paper"
	}
	return "quick"
}

// Protocol is the uniform interface the distributed experiments drive;
// implemented by replication.System (SWAT-ASR), dc.System, and
// aps.System.
type Protocol interface {
	// Name identifies the protocol in output.
	Name() string
	// OnData delivers a new stream value to the source.
	OnData(v float64)
	// OnQuery executes a query arriving at a node.
	OnQuery(at netsim.NodeID, q query.Query) (float64, error)
	// OnPhaseEnd marks a phase boundary (no-op for phase-less protocols).
	OnPhaseEnd()
	// Messages exposes the protocol's message counter.
	Messages() *netsim.Counter
}

// timeAware is implemented by protocols whose rate estimation needs the
// simulation clock (Divergence Caching).
type timeAware interface {
	SetTime(t float64)
}

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Timed lists the columns that hold wall-clock measurements. They
	// change from run to run, so the golden rendering leaves them out.
	Timed []int
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) { t.fprint(w, true) }

// fprint renders the table, leaving out the Timed columns unless
// timings is set.
func (t *Table) fprint(w io.Writer, timings bool) {
	keep := func(cells []string) []string {
		if timings || len(t.Timed) == 0 {
			return cells
		}
		out := make([]string, 0, len(cells))
		for i, cell := range cells {
			if !slices.Contains(t.Timed, i) {
				out = append(out, cell)
			}
		}
		return out
	}
	columns := keep(t.Columns)
	rows := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		rows[i] = keep(row)
	}
	widths := make([]int, len(columns))
	for i, c := range columns {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(columns)
	sep := make([]string, len(columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range rows {
		printRow(row)
	}
}

// Result is the output of one experiment run.
type Result struct {
	// ID is the registry key ("fig4a", ...).
	ID string
	// Description explains what the paper figure shows.
	Description string
	// Tables holds the regenerated rows/series.
	Tables []*Table
	// Notes summarize the measured outcome against the paper's claim.
	Notes []string
	// TimedNotes are notes computed from wall-clock measurements; like
	// Timed columns, the golden rendering leaves them out.
	TimedNotes []string
}

// Fprint renders the full result.
func (r *Result) Fprint(w io.Writer) { r.fprint(w, true) }

// fprint renders the result. Without timings it leaves out every
// wall-clock cell and note, so the rendering is a pure function of the
// code and the seeds: that is the form testdata/quick.golden pins.
func (r *Result) fprint(w io.Writer, timings bool) {
	fmt.Fprintf(w, "=== %s — %s ===\n", r.ID, r.Description)
	for _, t := range r.Tables {
		fmt.Fprintln(w)
		t.fprint(w, timings)
	}
	notes := r.Notes
	if timings {
		notes = append(notes[:len(notes):len(notes)], r.TimedNotes...)
	}
	if len(notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}
}

// Runner produces a Result at the given scale.
type Runner func(scale Scale) (*Result, error)

// registry maps experiment IDs to runners; populated by init functions
// in the per-figure files.
var registry = map[string]Runner{}

// register adds an experiment to the registry; duplicate IDs panic at
// package initialization.
func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", id))
	}
	registry[id] = r
}

// IDs returns all registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, scale Scale) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(scale)
}

// dataSource builds the named dataset: "real" is the weather substitute,
// "synthetic" the uniform [0,100] stream of the paper.
func dataSource(name string, seed int64) (stream.Source, error) {
	switch name {
	case "real":
		return stream.Weather(seed), nil
	case "synthetic":
		return stream.Uniform(seed), nil
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

// f formats a float compactly for table cells.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v < 0.0001:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.5f", v)
	}
}
