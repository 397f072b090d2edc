package durable

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/streamsum/swat/internal/core"
)

// testGeom is the tree geometry all durable tests share: small enough
// to keep byte sweeps fast, deep enough to exercise multiple levels.
var testGeom = core.Options{WindowSize: 64, Coefficients: 2}

func freshTree(t testing.TB) *core.Tree {
	t.Helper()
	tr, err := core.New(testGeom)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return tr
}

// goldenTree is the twin: a fresh tree fed the values directly, the
// ground truth recovery must reproduce bit-for-bit.
func goldenTree(t testing.TB, values []float64) *core.Tree {
	t.Helper()
	tr := freshTree(t)
	if len(values) > 0 {
		tr.UpdateBatch(values)
	}
	return tr
}

func treeBytes(t testing.TB, tr *core.Tree) []byte {
	t.Helper()
	b, err := tr.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	return b
}

// requireTreeEqual asserts two trees carry bit-identical state.
func requireTreeEqual(t testing.TB, got, want *core.Tree, context string) {
	t.Helper()
	if !bytes.Equal(treeBytes(t, got), treeBytes(t, want)) {
		t.Fatalf("%s: recovered tree differs from golden twin (arrivals %d vs %d)",
			context, got.Arrivals(), want.Arrivals())
	}
}

// writeSnapshot frames body as the snapshot covering arrivals and
// persists it the way a checkpoint does.
func writeSnapshot(dir string, arrivals uint64, body []byte) error {
	file := append(make([]byte, snapHdrLen, snapHdrLen+len(body)), body...)
	return writeSnapshotFile(dir, arrivals, sealSnapshot(file, arrivals))
}

// copyDir clones a store directory into a fresh temp dir, simulating
// the on-disk state a crash would leave behind.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	for _, e := range ents {
		if e.IsDir() {
			t.Fatalf("unexpected subdirectory %s", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatalf("write %s: %v", e.Name(), err)
		}
	}
	return dst
}

// seededBatches generates deterministic arrival batches: sizes 1..7,
// values drawn from a seeded RNG.
func seededBatches(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]float64, n)
	for i := range batches {
		b := make([]float64, 1+rng.Intn(7))
		for j := range b {
			b[j] = rng.Float64()*200 - 100
		}
		batches[i] = b
	}
	return batches
}

func flatten(batches [][]float64) []float64 {
	var out []float64
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// buildStore opens a store in a temp dir and appends the batches.
func buildStore(t testing.TB, opts Options, batches [][]float64) (string, *Store) {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir, freshTree(t), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, b := range batches {
		if err := st.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	return dir, st
}
