package multi

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/streamsum/swat/internal/core"
)

// foldRange declares the range feedStream's values lie in.
var foldRange = core.MergeOptions{ValueLo: 0, ValueHi: 1}

// encoded is a summary's canonical encoding.
func encoded(t *testing.T, s *core.Summary) []byte {
	t.Helper()
	tr, err := core.FromSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr.AppendSummary(nil)
}

// export returns the named stream's current summary.
func export(t *testing.T, m *Monitor, name string) *core.Summary {
	t.Helper()
	tr, err := m.Tree(name)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Export()
}

// TestFoldSummary pins the combiner: live streams fold in names order,
// byte-identical to a left MergeSummaries fold of their exports with a
// lagging stream advanced first exactly as AdvanceSummary advances it,
// while unknown and cold streams are refused and left out.
func TestFoldSummary(t *testing.T) {
	m := mustMonitor(t, Options{WindowSize: 32, Coefficients: 2, MinLevel: 1})
	defer m.Close()
	feedStream(t, m, "a", 1, 80)
	feedStream(t, m, "b", 2, 80)
	feedStream(t, m, "c", 3, 80)
	feedStream(t, m, "cold", 4, 3)

	names := []string{"b", "ghost", "a", "cold", "c"}
	sent := []int64{80, 5, 80, 3, 90} // c lost ten arrivals
	refused := make([]error, len(names))
	got, err := m.FoldSummary(names, sent, foldRange, refused)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if want := name == "ghost" || name == "cold"; (refused[i] != nil) != want {
			t.Errorf("%s: refusal %v, want refused %v", name, refused[i], want)
		}
	}
	if !strings.Contains(refused[1].Error(), "unknown") || !strings.Contains(refused[3].Error(), "cold") {
		t.Errorf("refusals %v / %v do not name their cause", refused[1], refused[3])
	}

	advanced, err := core.AdvanceSummary(export(t, m, "c"), 90, foldRange)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MergeSummaries(export(t, m, "b"), export(t, m, "a"), foldRange)
	if err == nil {
		want, err = core.MergeSummaries(want, advanced, foldRange)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, got), encoded(t, want)) {
		t.Error("fold differs from the left MergeSummaries fold of the exports")
	}
	if got.Streams != 3 || len(got.Taint) == 0 {
		t.Errorf("fold of 3 streams, one lagging: streams %d, taint %v", got.Streams, got.Taint)
	}

	// Nothing foldable: no summary, every name refused.
	none, err := m.FoldSummary([]string{"ghost", "cold"}, []int64{1, 3}, foldRange, refused[:2])
	if err != nil || none != nil || refused[0] == nil || refused[1] == nil {
		t.Errorf("fold of refused streams = %v, %v, refusals %v", none, err, refused[:2])
	}
	if _, err := m.FoldSummary(names, sent[:1], foldRange, refused); err == nil {
		t.Error("fold with mismatched sent counts accepted")
	}
}

// TestFoldSummaryConcurrentIngest folds while another goroutine keeps
// observing (run under -race): each tree is read at one consistent
// instant, and every fold covers all three streams, fast-forwarding
// any that a half-applied row left a value behind.
func TestFoldSummaryConcurrentIngest(t *testing.T) {
	m := mustMonitor(t, Options{WindowSize: 16, Coefficients: 2, Shards: 2})
	defer m.Close()
	names := []string{"a", "b", "c"}
	for i, name := range names {
		feedStream(t, m, name, int64(i+1), 48)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := m.ObserveAll([]float64{0.2, 0.4, 0.6}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	refused := make([]error, len(names))
	for {
		sum, err := m.FoldSummary(names, []int64{0, 0, 0}, foldRange, refused)
		if err != nil || sum == nil || sum.Streams != len(names) {
			t.Fatalf("fold under ingest: %v, %v, refusals %v", sum, err, refused)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestFoldSummaryDurable folds a durable monitor's streams: the fold is
// a pure read, so it works and leaves every store file byte for byte as
// it was.
func TestFoldSummaryDurable(t *testing.T) {
	dir := t.TempDir()
	m := mustMonitor(t, durableOpts(dir))
	defer m.Close()
	feedStream(t, m, "cpu", 1, 90)
	feedStream(t, m, "mem", 2, 90)

	snapshot := func() map[string][]byte {
		files := map[string][]byte{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			files[path] = b
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := snapshot()
	if len(before) == 0 {
		t.Fatal("durable monitor wrote no store files")
	}
	refused := make([]error, 2)
	sum, err := m.FoldSummary([]string{"cpu", "mem"}, []int64{90, 90}, foldRange, refused)
	if err != nil || refused[0] != nil || refused[1] != nil {
		t.Fatalf("durable fold: %v, refusals %v", err, refused)
	}
	if sum.Streams != 2 || sum.Arrivals != 90 {
		t.Errorf("durable fold summarizes %d streams at %d arrivals", sum.Streams, sum.Arrivals)
	}
	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("fold changed the store file set: %d files, was %d", len(after), len(before))
	}
	for path, b := range before {
		if !bytes.Equal(after[path], b) {
			t.Errorf("fold touched %s", path)
		}
	}
}
