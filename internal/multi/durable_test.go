package multi

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/durable"
)

// durableOpts keeps checkpoints frequent enough that a short test
// exercises the snapshot + WAL-tail recovery path, not just replay.
func durableOpts(dir string) Options {
	return Options{
		WindowSize:   32,
		Coefficients: 2,
		Shards:       2,
		DataDir:      dir,
		Durable:      durable.Options{CheckpointEvery: 40},
	}
}

func TestDurableMonitorRecoversStreams(t *testing.T) {
	dir := t.TempDir()
	streams := []string{"cpu", "mem", "disk/io"}
	rng := rand.New(rand.NewSource(7))

	m := mustMonitor(t, durableOpts(dir))
	history := map[string][]float64{}
	for _, name := range streams {
		if err := m.Add(name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		for _, name := range streams {
			v := rng.NormFloat64()
			if err := m.Observe(name, v); err != nil {
				t.Fatal(err)
			}
			history[name] = append(history[name], v)
		}
		if i%7 == 0 {
			batch := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			if err := m.ObserveBatch("cpu", batch); err != nil {
				t.Fatal(err)
			}
			history["cpu"] = append(history["cpu"], batch...)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh monitor over the same directory recovers every stream to
	// exactly the pre-close state.
	m2 := mustMonitor(t, durableOpts(dir))
	defer m2.Close()
	for _, name := range streams {
		if err := m2.Add(name); err != nil {
			t.Fatal(err)
		}
		info, err := m2.Recovery(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Arrivals != uint64(len(history[name])) {
			t.Fatalf("stream %q recovered %d arrivals, want %d (info: %s)",
				name, info.Arrivals, len(history[name]), info)
		}
		if info.Truncated {
			t.Fatalf("stream %q reported truncation on a clean log: %s", name, info)
		}
		tr, err := m2.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := core.New(core.Options{WindowSize: 32, Coefficients: 2})
		if err != nil {
			t.Fatal(err)
		}
		golden.UpdateBatch(history[name])
		a, _ := tr.MarshalBinary()
		b, _ := golden.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatalf("stream %q recovered tree differs from golden twin", name)
		}
	}

	// Appends keep working after recovery.
	if err := m2.ObserveAll([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m2.ObserveAllBatch([][]float64{{4, 5, 6}, {7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
}

func TestDurableMonitorRecoveryNonDurable(t *testing.T) {
	m := mustMonitor(t, Options{WindowSize: 16})
	defer m.Close()
	if err := m.Add("a"); err != nil {
		t.Fatal(err)
	}
	info, err := m.Recovery("a")
	if err != nil {
		t.Fatal(err)
	}
	if info != (durable.RecoveryInfo{}) {
		t.Fatalf("non-durable monitor reported recovery %+v", info)
	}
	if _, err := m.Recovery("nope"); err == nil {
		t.Fatal("Recovery accepted unknown stream")
	}
}

func TestStreamDirInjective(t *testing.T) {
	names := []string{"", "a", "A", "..", ".", "a/b", "a%2Fb", "a b", "s-a", "-", "_", "héllo"}
	seen := map[string]string{}
	for _, n := range names {
		d := streamDir(n)
		if prev, dup := seen[d]; dup {
			t.Fatalf("streamDir collision: %q and %q both map to %q", prev, n, d)
		}
		seen[d] = n
		if back, ok := streamName(d); !ok || back != n {
			t.Fatalf("streamName(%q) = %q, %v; want %q", d, back, ok, n)
		}
		for _, c := range []byte(d) {
			ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
				c == '_' || c == '-' || c == '%'
			if !ok {
				t.Fatalf("streamDir(%q) = %q contains unsafe byte %q", n, d, c)
			}
		}
	}
}

// TestAddStored pins the restart path of a durable node: every stream
// with a store under DataDir — the empty name included — comes back
// byte-identical without being named, and directories streamDir never
// produces are left alone.
func TestAddStored(t *testing.T) {
	dir := t.TempDir()
	streams := []string{"", "cpu", "disk/io"}
	m := mustMonitor(t, durableOpts(dir))
	want := map[string][]byte{}
	for i, name := range streams {
		if err := m.Add(name); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 50+i; v++ {
			if err := m.Observe(name, float64(v*(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		tr, _ := m.Tree(name)
		want[name] = tr.AppendSummary(nil)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"notastream", "s-%zz", "s-a%2fb", "s-a b"} {
		if err := os.Mkdir(filepath.Join(dir, junk), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "s-file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := mustMonitor(t, durableOpts(dir))
	defer m2.Close()
	if err := m2.Add("cpu"); err != nil { // already registered: skipped
		t.Fatal(err)
	}
	added, err := m2.AddStored()
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 2 || added[0] != "" || added[1] != "disk/io" {
		t.Fatalf("AddStored added %q, want [\"\" \"disk/io\"]", added)
	}
	if m2.Len() != 3 {
		t.Fatalf("%d streams registered, want 3", m2.Len())
	}
	for _, name := range streams {
		tr, err := m2.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tr.AppendSummary(nil), want[name]) {
			t.Errorf("stream %q recovered differently", name)
		}
	}
	if again, err := m2.AddStored(); err != nil || len(again) != 0 {
		t.Errorf("second AddStored = %q, %v; want nothing", again, err)
	}
	for _, opts := range []Options{{WindowSize: 16}, durableOpts(filepath.Join(dir, "never-written"))} {
		empty := mustMonitor(t, opts)
		defer empty.Close()
		if got, err := empty.AddStored(); err != nil || got != nil {
			t.Errorf("AddStored with nothing stored (DataDir %q) = %q, %v", opts.DataDir, got, err)
		}
	}
}
