package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/streamsum/swat/internal/stream"
	"github.com/streamsum/swat/internal/wavelet"
)

// TestUpdateBatchMatchesSequential is the batch-equivalence property:
// for random geometries, random batch boundaries, and random inputs,
// UpdateBatch must leave the tree in bit-identical state to feeding the
// same values one at a time through Update. State identity is checked
// field by field over everything the update path touches (ring and
// its head, counters, node validity, birth, coefficients), and through
// the canonical summary encoding. Besides fresh trees, the
// property must hold from every state a tree can be rebuilt into:
// restored mid-cycle from a snapshot or from a summary with a partial
// ring, and produced by a skewed merge (several streams, tainted
// spans).
func TestUpdateBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	windows := []int{4, 8, 16, 64, 256, 1024}
	randomOpts := func() Options {
		n := windows[r.Intn(len(windows))]
		return Options{
			WindowSize:   n,
			Coefficients: 1 << uint(r.Intn(4)),
			MinLevel:     r.Intn(wavelet.Log2(n)),
		}
	}
	newTree := func(opts Options) *Tree {
		tr, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	randomValues := func(count int) []float64 {
		values := make([]float64, count)
		for i := range values {
			values[i] = r.NormFloat64() * 50
		}
		return values
	}
	// feedBoth feeds values to seq one at a time and to bat in randomly
	// sized batches (an empty one followed by a single Update), so runs
	// straddle refresh boundaries arbitrarily, and requires identical
	// state at the end of every batch.
	feedBoth := func(t *testing.T, seq, bat *Tree, values []float64) {
		t.Helper()
		for i := 0; i < len(values); {
			size := r.Intn(len(values) - i + 1)
			bat.UpdateBatch(values[i : i+size])
			if size == 0 {
				bat.Update(values[i])
				size = 1
			}
			for _, v := range values[i : i+size] {
				seq.Update(v)
			}
			i += size
			requireSameState(t, seq, bat)
		}
	}

	t.Run("fresh", func(t *testing.T) {
		for trial := 0; trial < 50; trial++ {
			opts := randomOpts()
			feedBoth(t, newTree(opts), newTree(opts), randomValues(1+r.Intn(5*opts.WindowSize)))
		}
	})

	t.Run("restored", func(t *testing.T) {
		for trial := 0; trial < 30; trial++ {
			opts := randomOpts()
			ring := 1 << uint(opts.MinLevel+1)
			// Even trials stop before the raw ring has filled; odd ones
			// past warm-up. Either way the source stops between two of
			// the finest level's refreshes whenever MinLevel > 0.
			pre := 1 + r.Intn(ring-1)
			if trial%2 == 1 {
				pre = ring + r.Intn(3*opts.WindowSize)
				if opts.MinLevel > 0 && pre%(ring/2) == 0 {
					pre++
				}
			}
			src := newTree(opts)
			src.UpdateBatch(randomValues(pre))
			snap, err := src.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			values := randomValues(1 + r.Intn(5*opts.WindowSize))
			var seq, bat Tree
			if err := seq.UnmarshalBinary(snap); err != nil {
				t.Fatal(err)
			}
			if err := bat.UnmarshalBinary(snap); err != nil {
				t.Fatal(err)
			}
			feedBoth(t, &seq, &bat, values)

			sum := src.Export()
			if trial%2 == 0 && len(sum.Ring) >= ring {
				t.Fatalf("trial %d: summary ring holds %d of %d values, want a partial ring", trial, len(sum.Ring), ring)
			}
			fseq, err := FromSummary(sum)
			if err != nil {
				t.Fatal(err)
			}
			fbat, err := FromSummary(sum)
			if err != nil {
				t.Fatal(err)
			}
			feedBoth(t, fseq, fbat, values)
		}
	})

	t.Run("merged", func(t *testing.T) {
		mo := MergeOptions{ValueLo: -200, ValueHi: 200}
		for trial := 0; trial < 20; trial++ {
			opts := randomOpts()
			a, b := newTree(opts), newTree(opts)
			a.UpdateBatch(randomValues(1 + r.Intn(3*opts.WindowSize)))
			// b runs ahead of a, so the merge fast-forwards a over
			// synthetic midpoints and taints them.
			b.UpdateBatch(randomValues(int(a.Arrivals()) + 1 + r.Intn(opts.WindowSize)))
			seq, err := MergedTree(a, b, mo)
			if err != nil {
				t.Fatal(err)
			}
			bat, err := MergedTree(a, b, mo)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Streams() != 2 || len(seq.TaintSpans()) == 0 {
				t.Fatalf("trial %d: merged tree has %d streams and %d taint spans, want 2 and some",
					trial, seq.Streams(), len(seq.TaintSpans()))
			}
			feedBoth(t, seq, bat, randomValues(1+r.Intn(5*opts.WindowSize)))
		}
	})
}

// TestRefreshKernels pins the two direct refresh kernels to the wavelet
// calls they replace, bit for bit, and at 0 allocations: fillPair to
// AveragesInPlace over a level-0 segment, combineOne to
// CombineAveragesInto with one coefficient per node.
func TestRefreshKernels(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pair, want := make([]float64, 2), make([]float64, 2)
	for i := 0; i < 2000; i++ {
		a := r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
		b := r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
		for _, k := range []int{1, 2, 4} {
			dst := pair[:min(k, 2)]
			fillPair(dst, a, b)
			seg := []float64{a, b}
			res, err := wavelet.AveragesInPlace(seg, k)
			if err != nil {
				t.Fatal(err)
			}
			for j := range res {
				if math.Float64bits(dst[j]) != math.Float64bits(res[j]) {
					t.Fatalf("fillPair(%v, %v) k=%d = %v, AveragesInPlace = %v", a, b, k, dst, res)
				}
			}
		}
		combineOne(pair[:1], []float64{a}, []float64{b})
		res, err := wavelet.CombineAveragesInto(want, []float64{a}, []float64{b}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pair[0]) != math.Float64bits(res[0]) {
			t.Fatalf("combineOne(%v, %v) = %v, CombineAveragesInto = %v", a, b, pair[0], res[0])
		}
	}
	newer, older := []float64{1.5}, []float64{-0.25}
	if allocs := testing.AllocsPerRun(100, func() {
		fillPair(pair, 3, 4)
		combineOne(pair[:1], newer, older)
	}); allocs != 0 {
		t.Errorf("fillPair + combineOne allocate %v times, want 0", allocs)
	}
}

// TestUpdateBatchQueryEquivalence drives both ingestion paths past
// warm-up and compares query answers exactly at every step.
func TestUpdateBatchQueryEquivalence(t *testing.T) {
	const n = 64
	opts := Options{WindowSize: n, Coefficients: 4, MinLevel: 2}
	seq, _ := New(opts)
	bat, _ := New(opts)
	src1 := stream.Uniform(31)
	src2 := stream.Uniform(31)
	batch := make([]float64, 7) // deliberately coprime with the refresh period
	for step := 0; step < 100; step++ {
		for i := range batch {
			batch[i] = src1.Next()
		}
		for range batch {
			seq.Update(src2.Next())
		}
		bat.UpdateBatch(batch)
		if seq.Ready() != bat.Ready() {
			t.Fatalf("step %d: readiness diverged", step)
		}
		if !seq.Ready() {
			continue
		}
		for _, age := range []int{0, 1, 5, n / 2, n - 1} {
			a, errA := seq.PointQuery(age)
			b, errB := bat.PointQuery(age)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("step %d age %d: error divergence %v vs %v", step, age, errA, errB)
			}
			if errA == nil && a != b {
				t.Fatalf("step %d age %d: %v != %v", step, age, a, b)
			}
		}
	}
}

// TestVisitNodesMatchesNodes: the lending iterator must report exactly
// the snapshots Nodes copies, in the same scan order, including early
// termination.
func TestVisitNodesMatchesNodes(t *testing.T) {
	tr, _ := New(Options{WindowSize: 64, Coefficients: 4})
	src := stream.Uniform(23)
	for i := 0; i < 150; i++ {
		tr.Update(src.Next())
	}
	want := tr.Nodes()
	var got []NodeInfo
	tr.VisitNodes(func(ni NodeInfo) bool {
		// Copy the lent view before retaining it.
		ni.Coeffs = append([]float64(nil), ni.Coeffs...)
		got = append(got, ni)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d nodes, Nodes returned %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() || got[i].Valid != want[i].Valid ||
			len(got[i].Coeffs) != len(want[i].Coeffs) {
			t.Fatalf("node %d differs: %+v vs %+v", i, got[i], want[i])
		}
		for j := range want[i].Coeffs {
			if got[i].Coeffs[j] != want[i].Coeffs[j] {
				t.Fatalf("node %d coeff %d differs", i, j)
			}
		}
	}
	stopped := 0
	tr.VisitNodes(func(NodeInfo) bool {
		stopped++
		return stopped < 4
	})
	if stopped != 4 {
		t.Errorf("early termination visited %d nodes, want 4", stopped)
	}
}
