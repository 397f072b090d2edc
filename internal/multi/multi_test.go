package multi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/streamsum/swat/internal/stream"
)

func mustMonitor(t *testing.T, opts Options) *Monitor {
	t.Helper()
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{WindowSize: 7}); err == nil {
		t.Error("accepted non-pow2 window")
	}
	if _, err := New(Options{WindowSize: 64, Coefficients: 3}); err == nil {
		t.Error("accepted non-pow2 coefficients")
	}
	m := mustMonitor(t, Options{WindowSize: 64})
	if m.opts.Coefficients != 4 {
		t.Errorf("default coefficients = %d, want 4", m.opts.Coefficients)
	}
}

func TestAddAndAccessors(t *testing.T) {
	m := mustMonitor(t, Options{WindowSize: 32})
	if err := m.Add("cpu"); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("mem"); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("cpu"); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := m.Add(""); err != nil {
		t.Errorf("empty name refused: %v", err)
	}
	if err := m.Add(""); err == nil {
		t.Error("duplicate empty name accepted")
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d", m.Len())
	}
	names := m.Streams()
	if len(names) != 3 || names[0] != "cpu" || names[1] != "mem" || names[2] != "" {
		t.Errorf("Streams = %v", names)
	}
	names[0] = "hacked"
	if m.Streams()[0] != "cpu" {
		t.Error("Streams exposes internal slice")
	}
	if _, err := m.Tree("cpu"); err != nil {
		t.Error(err)
	}
	if _, err := m.Tree("nope"); err == nil {
		t.Error("Tree accepted unknown stream")
	}
}

func TestObserve(t *testing.T) {
	m := mustMonitor(t, Options{WindowSize: 16})
	if err := m.Add("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("nope", 1); err == nil {
		t.Error("Observe accepted unknown stream")
	}
	for i := 0; i < 16; i++ {
		if err := m.Observe("a", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Ready("a") {
		t.Error("stream not ready after full window")
	}
	if m.Ready("nope") {
		t.Error("unknown stream reported ready")
	}
}

func TestObserveAll(t *testing.T) {
	m := mustMonitor(t, Options{WindowSize: 16})
	for _, n := range []string{"a", "b"} {
		if err := m.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ObserveAll([]float64{1}); err == nil {
		t.Error("accepted wrong value count")
	}
	for i := 0; i < 16; i++ {
		if err := m.ObserveAll([]float64{float64(i), float64(-i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Ready("a") || !m.Ready("b") {
		t.Error("streams not ready")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if r, err := Pearson(x, x); err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("self correlation = %v (%v), want 1", r, err)
	}
	y := []float64{4, 3, 2, 1}
	if r, err := Pearson(x, y); err != nil || math.Abs(r+1) > 1e-12 {
		t.Errorf("anti correlation = %v (%v), want -1", r, err)
	}
	if _, err := Pearson(x, y[:2]); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance accepted")
	}
}

// Property: Pearson is symmetric and bounded by [-1, 1].
func TestQuickPearson(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(64)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		rxy, err1 := Pearson(x, y)
		ryx, err2 := Pearson(y, x)
		if err1 != nil || err2 != nil {
			return true // zero variance draws are fine to skip
		}
		return math.Abs(rxy-ryx) < 1e-12 && rxy >= -1-1e-12 && rxy <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCorrelationDetectsStructure: a stream, its noisy copy, its
// negation, and independent noise — the monitor must rank the copy
// highest, the negation strongly negative, and the noise near zero.
func TestCorrelationDetectsStructure(t *testing.T) {
	const n = 128
	m := mustMonitor(t, Options{WindowSize: n, Coefficients: 8})
	for _, name := range []string{"base", "copy", "anti", "noise"} {
		if err := m.Add(name); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	walk := stream.RandomWalk(3, 50, 4, 0, 100)
	for i := 0; i < 4*n; i++ {
		v := walk.Next()
		err := m.ObserveAll([]float64{
			v,
			v + rng.NormFloat64()*1.5,
			100 - v,
			rng.Float64() * 100,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rCopy, err := m.Correlation("base", "copy", n)
	if err != nil {
		t.Fatal(err)
	}
	rAnti, err := m.Correlation("base", "anti", n)
	if err != nil {
		t.Fatal(err)
	}
	rNoise, err := m.Correlation("base", "noise", n)
	if err != nil {
		t.Fatal(err)
	}
	if rCopy < 0.9 {
		t.Errorf("copy correlation = %v, want > 0.9", rCopy)
	}
	if rAnti > -0.9 {
		t.Errorf("anti correlation = %v, want < -0.9", rAnti)
	}
	if math.Abs(rNoise) > 0.5 {
		t.Errorf("noise correlation = %v, want near 0", rNoise)
	}
}

// TestCorrelationApproximatesExact: the summary-based estimate must be
// close to the correlation of the raw values.
func TestCorrelationApproximatesExact(t *testing.T) {
	const n = 64
	m := mustMonitor(t, Options{WindowSize: n, Coefficients: 8})
	for _, name := range []string{"x", "y"} {
		if err := m.Add(name); err != nil {
			t.Fatal(err)
		}
	}
	wx, _ := stream.NewWindow(n)
	wy, _ := stream.NewWindow(n)
	sx := stream.RandomWalk(1, 40, 3, 0, 100)
	sy := stream.RandomWalk(2, 60, 3, 0, 100)
	for i := 0; i < 4*n; i++ {
		vx, vy := sx.Next(), sy.Next()
		if err := m.ObserveAll([]float64{vx, vy}); err != nil {
			t.Fatal(err)
		}
		wx.Push(vx)
		wy.Push(vy)
	}
	got, err := m.Correlation("x", "y", n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Pearson(wx.Values(), wy.Values())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.25 {
		t.Errorf("summary correlation %v too far from exact %v", got, want)
	}
}

func TestCorrelationValidation(t *testing.T) {
	m := mustMonitor(t, Options{WindowSize: 16})
	if err := m.Add("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Correlation("a", "zz", 8); err == nil {
		t.Error("unknown stream accepted")
	}
	if _, err := m.Correlation("zz", "b", 8); err == nil {
		t.Error("unknown stream accepted")
	}
	if _, err := m.Correlation("a", "b", 1); err == nil {
		t.Error("span 1 accepted")
	}
	if _, err := m.Correlation("a", "b", 17); err == nil {
		t.Error("span > window accepted")
	}
	// Cold trees propagate the not-covered error.
	if _, err := m.Correlation("a", "b", 8); err == nil {
		t.Error("cold trees answered correlation")
	}
}

func TestCorrelated(t *testing.T) {
	const n = 64
	m := mustMonitor(t, Options{WindowSize: n, Coefficients: 8})
	for _, name := range []string{"s1", "s2", "s3"} {
		if err := m.Add(name); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	walk := stream.RandomWalk(5, 50, 4, 0, 100)
	for i := 0; i < 4*n; i++ {
		v := walk.Next()
		if err := m.ObserveAll([]float64{v, v + rng.NormFloat64(), rng.Float64() * 100}); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := m.Correlated(n, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].A != "s1" || pairs[0].B != "s2" {
		t.Fatalf("Correlated = %+v, want exactly (s1,s2)", pairs)
	}
	if pairs[0].R < 0.8 {
		t.Errorf("pair correlation %v below threshold", pairs[0].R)
	}
	// Threshold validation.
	if _, err := m.Correlated(n, 1.5); err == nil {
		t.Error("threshold > 1 accepted")
	}
	if _, err := m.Correlated(n, -0.1); err == nil {
		t.Error("negative threshold accepted")
	}
	// Loose threshold returns all three pairs, sorted by |r| descending.
	all, err := m.Correlated(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("Correlated(0) returned %d pairs, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if math.Abs(all[i].R) > math.Abs(all[i-1].R)+1e-12 {
			t.Error("pairs not sorted by |r|")
		}
	}
}

func TestCorrelatedSkipsColdStreams(t *testing.T) {
	m := mustMonitor(t, Options{WindowSize: 16})
	if err := m.Add("warm1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("warm2"); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("cold"); err != nil {
		t.Fatal(err)
	}
	walk := stream.RandomWalk(6, 50, 5, 0, 100)
	for i := 0; i < 64; i++ {
		v := walk.Next()
		if err := m.Observe("warm1", v); err != nil {
			t.Fatal(err)
		}
		if err := m.Observe("warm2", v+1); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := m.Correlated(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.A == "cold" || p.B == "cold" {
			t.Errorf("cold stream appears in %+v", p)
		}
	}
	if len(pairs) != 1 {
		t.Errorf("pairs = %+v, want only (warm1,warm2)", pairs)
	}
}
