package experiments

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestIDsComplete(t *testing.T) {
	want := []string{
		"fig4a", "fig4b", "fig4c",
		"fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f",
		"fig6a", "fig6b",
		"fig9a", "fig9b", "fig9c",
		"fig10a", "fig10b",
		"tab1",
		"ablation-basis", "ablation-bucketing", "ablation-coeffs", "ablation-levels", "ablation-phase",
		"sensitivity-querylen",
	}
	got := IDs()
	index := make(map[string]bool, len(got))
	for _, id := range got {
		index[id] = true
	}
	for _, id := range want {
		if !index[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registered %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("IDs not sorted at %d: %v", i, got)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", Quick); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Paper.String() != "paper" {
		t.Error("scale names wrong")
	}
}

func TestDataSource(t *testing.T) {
	for _, name := range []string{"real", "synthetic"} {
		src, err := dataSource(name, 1)
		if err != nil || src == nil {
			t.Errorf("dataSource(%q) failed: %v", name, err)
		}
	}
	if _, err := dataSource("bogus", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
	}
	tab.AddRow("1", "x")
	tab.AddRow("22", "y")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-column") {
		t.Errorf("table output missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestResultFprint(t *testing.T) {
	r := &Result{ID: "x", Description: "d", Notes: []string{"n1"}}
	var sb strings.Builder
	r.Fprint(&sb)
	if !strings.Contains(sb.String(), "=== x — d ===") || !strings.Contains(sb.String(), "note: n1") {
		t.Errorf("result output:\n%s", sb.String())
	}
}

func TestFormatFloat(t *testing.T) {
	if f(0) != "0" {
		t.Error("f(0)")
	}
	if !strings.Contains(f(12345), "e") {
		t.Error("large values should use scientific notation")
	}
	if f(0.5) != "0.50000" {
		t.Errorf("f(0.5) = %q", f(0.5))
	}
}

// checkResult validates the basic shape of any experiment output.
func checkResult(t *testing.T, id string, r *Result) {
	t.Helper()
	if r.ID != id {
		t.Errorf("result ID %q, want %q", r.ID, id)
	}
	if len(r.Tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	for _, tab := range r.Tables {
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table %q", id, tab.Title)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("%s: row width %d != %d columns", id, len(row), len(tab.Columns))
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// goldenPath pins the rendering of every Quick-scale figure. A change
// that moves a figure says so and commits the regenerated file
// (go test ./internal/experiments -run TestRunAllQuick -update).
const goldenPath = "testdata/quick.golden"

// TestRunAllQuick executes every registered experiment at Quick scale,
// one parallel subtest each, and compares each rendering, wall-clock
// cells left out, byte for byte with its section of
// testdata/quick.golden. A section whose ID no experiment registers
// fails the run. The histogram-backed figures are the slow ones and are
// skipped with -short. -update rewrites the file once every subtest has
// finished: one section per registered ID, keeping the sections of the
// figures it skips and dropping every unregistered one.
func TestRunAllQuick(t *testing.T) {
	slow := map[string]bool{
		"fig5a": true, "fig5b": true, "fig5c": true,
		"fig5d": true, "fig5e": true, "fig5f": true,
		"fig6b": true, "sensitivity-querylen": true,
	}
	golden, err := readGolden(goldenPath)
	if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	orphans := orphanSections(golden, IDs())
	var mu sync.Mutex // guards golden while -update subtests fill it
	if *update {
		for _, id := range orphans {
			delete(golden, id)
		}
		// Cleanup runs after the parallel subtests, which start only
		// once this body returns.
		t.Cleanup(func() {
			if err := writeGolden(goldenPath, golden); err != nil {
				t.Error(err)
			}
		})
	} else if len(orphans) > 0 {
		t.Errorf("%s has sections for unregistered experiments %v; rerun with -update", goldenPath, orphans)
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && slow[id] {
				t.Skip("histogram-backed experiment skipped in -short mode")
			}
			r, err := Run(id, Quick)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, id, r)
			var b strings.Builder
			r.fprint(&b, false)
			got := b.String()
			if *update {
				mu.Lock()
				golden[id] = got
				mu.Unlock()
				return
			}
			want, ok := golden[id]
			if !ok {
				t.Fatalf("%s has no section in %s; rerun with -update", id, goldenPath)
			}
			if got != want {
				t.Errorf("%s differs from %s (rerun with -update and commit the file if the change is intended):\n%s",
					id, goldenPath, firstDiff(want, got))
			}
		})
	}
}

// orphanSections returns, sorted, the IDs of golden sections that no
// registered experiment renders.
func orphanSections(sections map[string]string, ids []string) []string {
	registered := make(map[string]bool, len(ids))
	for _, id := range ids {
		registered[id] = true
	}
	var orphans []string
	for id := range sections {
		if !registered[id] {
			orphans = append(orphans, id)
		}
	}
	sort.Strings(orphans)
	return orphans
}

func TestOrphanSections(t *testing.T) {
	sections := map[string]string{"fig4a": "", "lossy": "", "fig99": ""}
	got := orphanSections(sections, IDs())
	if want := []string{"fig99", "lossy"}; !reflect.DeepEqual(got, want) {
		t.Errorf("orphanSections = %v, want %v", got, want)
	}
}

// readGolden splits the golden file into its per-experiment sections,
// keyed by ID. Each section is one rendering; sections are separated by
// a blank line.
func readGolden(path string) (map[string]string, error) {
	sections := map[string]string{}
	data, err := os.ReadFile(path)
	if err != nil {
		return sections, err
	}
	parts := strings.Split(string(data), "\n\n=== ")
	for i, part := range parts {
		if i > 0 {
			part = "=== " + part
		}
		if i < len(parts)-1 {
			part += "\n"
		}
		fields := strings.Fields(part)
		if len(fields) < 2 || fields[0] != "===" {
			return nil, fmt.Errorf("%s: section %d has no header", path, i)
		}
		sections[fields[1]] = part
	}
	return sections, nil
}

// writeGolden writes the sections in ID order, a blank line apart.
func writeGolden(path string, sections map[string]string) error {
	ids := make([]string, 0, len(sections))
	for id := range sections {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = sections[id]
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(strings.Join(out, "\n")), 0o644)
}

// firstDiff reports the first line where two renderings differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}

// lastCell parses the numeric cell at (row, col) of a table.
func lastCell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// TestFig9aShape asserts the qualitative result the paper reports:
// SWAT-ASR never sends more messages than APS, and the competitors'
// costs fall as the write rate drops (caching becomes viable).
func TestFig9aShape(t *testing.T) {
	r, err := Run("fig9a", Quick)
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	for i := range tab.Rows {
		asr := lastCell(t, tab, i, 1)
		apsCost := lastCell(t, tab, i, 3)
		if asr > apsCost {
			t.Errorf("row %d: ASR %v > APS %v", i, asr, apsCost)
		}
	}
	dcFirst := lastCell(t, tab, 0, 2)
	dcLast := lastCell(t, tab, len(tab.Rows)-1, 2)
	if dcLast >= dcFirst {
		t.Errorf("DC cost did not fall from write-heavy (%v) to read-heavy (%v)", dcFirst, dcLast)
	}
}

// TestFig4cShape: dropping levels must increase the linear-query error
// monotonically in the aggregate (first vs last row), and the linear
// error must grow by a larger factor than the exponential error.
func TestFig4cShape(t *testing.T) {
	r, err := Run("fig4c", Quick)
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	first, last := 0, len(tab.Rows)-1
	expRise := lastCell(t, tab, last, 2) - lastCell(t, tab, first, 2)
	linRise := lastCell(t, tab, last, 3) - lastCell(t, tab, first, 3)
	if expRise <= 0 {
		t.Errorf("exponential-query error did not grow: rise %v", expRise)
	}
	if linRise <= expRise {
		t.Errorf("linear error rise %v not larger than exponential rise %v (paper: linear degrades much faster)", linRise, expRise)
	}
}

// TestTab1Shape: the directory has log2(16)=4 rows and the first
// segment is (0,1).
func TestTab1Shape(t *testing.T) {
	r, err := Run("tab1", Quick)
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("directory rows = %d, want 4", len(tab.Rows))
	}
	if tab.Rows[0][0] != "(0,1)" || tab.Rows[3][0] != "(8,15)" {
		t.Errorf("segments = %v ... %v", tab.Rows[0][0], tab.Rows[3][0])
	}
}

// TestFig9cShape: SWAT-ASR is never costlier than either competitor at
// any precision, and its cost falls monotonically as δ loosens.
func TestFig9cShape(t *testing.T) {
	r, err := Run("fig9c", Quick)
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	prev := -1.0
	for i := range tab.Rows {
		asr := lastCell(t, tab, i, 1)
		dcCost := lastCell(t, tab, i, 2)
		apsCost := lastCell(t, tab, i, 3)
		if asr > dcCost || asr > apsCost {
			t.Errorf("δ=%s: ASR %v not cheapest (DC %v, APS %v)", tab.Rows[i][0], asr, dcCost, apsCost)
		}
		if prev >= 0 && asr > prev {
			t.Errorf("δ=%s: ASR cost rose from %v to %v as precision loosened", tab.Rows[i][0], prev, asr)
		}
		prev = asr
	}
}

// TestFig10aShape: message cost grows with the client count for every
// protocol, and SWAT-ASR stays cheapest throughout.
func TestFig10aShape(t *testing.T) {
	r, err := Run("fig10a", Quick)
	if err != nil {
		t.Fatal(err)
	}
	tab := r.Tables[0]
	for col := 1; col <= 3; col++ {
		prev := -1.0
		for i := range tab.Rows {
			v := lastCell(t, tab, i, col)
			if v <= prev {
				t.Errorf("column %d: cost did not grow with clients (%v -> %v)", col, prev, v)
			}
			prev = v
		}
	}
	for i := range tab.Rows {
		asr := lastCell(t, tab, i, 1)
		if asr > lastCell(t, tab, i, 2) || asr > lastCell(t, tab, i, 3) {
			t.Errorf("row %d: ASR not cheapest", i)
		}
	}
}
