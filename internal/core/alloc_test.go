package core

import (
	"bytes"
	"testing"

	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
)

// Allocation-regression guards for the zero-allocation hot paths. The
// paper's O(k) amortized per-arrival bound is only real when the
// constant isn't dominated by the allocator, so these pin the arrival
// and steady-state query paths at exactly 0 allocs/op.

func warmTree(t *testing.T, opts Options) *Tree {
	t.Helper()
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	src := stream.Uniform(17)
	for i := 0; i < 2*opts.WindowSize; i++ {
		tr.Update(src.Next())
	}
	return tr
}

func TestUpdateDoesNotAllocate(t *testing.T) {
	for _, opts := range []Options{
		{WindowSize: 256},
		{WindowSize: 1024},
		{WindowSize: 4096},
		{WindowSize: 1024, Coefficients: 8},
		{WindowSize: 1024, Coefficients: 8, MinLevel: 4},
	} {
		tr := warmTree(t, opts)
		src := stream.Uniform(5)
		if allocs := testing.AllocsPerRun(1000, func() {
			tr.Update(src.Next())
		}); allocs != 0 {
			t.Errorf("%+v: Update allocates %v times per arrival, want 0", opts, allocs)
		}
	}
}

func TestUpdateBatchDoesNotAllocate(t *testing.T) {
	for _, c := range []struct {
		opts  Options
		batch int
	}{
		{Options{WindowSize: 1024}, 64},
		{Options{WindowSize: 1024, Coefficients: 8, MinLevel: 4}, 64},
		{Options{WindowSize: 1024}, 256},                     // swatd's ingest shape
		{Options{WindowSize: 4096, Coefficients: 4}, 256},    // the query-node feeder
		{Options{WindowSize: 256, Coefficients: 2}, 3 * 256}, // longer than 2N
	} {
		tr := warmTree(t, c.opts)
		src := stream.Uniform(6)
		batch := make([]float64, c.batch)
		if allocs := testing.AllocsPerRun(200, func() {
			for i := range batch {
				batch[i] = src.Next()
			}
			tr.UpdateBatch(batch)
		}); allocs != 0 {
			t.Errorf("%+v, batch %d: UpdateBatch allocates %v times per batch, want 0", c.opts, c.batch, allocs)
		}
	}
}

// TestVisitNodesDoesNotAllocate pins the zero-copy read path: lending
// node views must not touch the allocator.
func TestVisitNodesDoesNotAllocate(t *testing.T) {
	tr := warmTree(t, Options{WindowSize: 1024, Coefficients: 4})
	var sum float64
	var visited int
	if allocs := testing.AllocsPerRun(1000, func() {
		visited = 0
		tr.VisitNodes(func(ni NodeInfo) bool {
			visited++
			if ni.Valid {
				sum += ni.Coeffs[0]
			}
			return true
		})
	}); allocs != 0 {
		t.Errorf("VisitNodes allocates %v times per scan, want 0", allocs)
	}
	if visited != tr.NumNodes() {
		t.Errorf("visited %d nodes, want %d", visited, tr.NumNodes())
	}
	_ = sum
}

// TestQueryPathSteadyStateAllocations: after the first call grows the
// scratch buffers, point and inner-product queries are allocation-free.
func TestQueryPathSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; pooled query scratch is not allocation-free there")
	}
	tr := warmTree(t, Options{WindowSize: 1024, Coefficients: 4})
	ages := []int{0, 1, 2, 3, 9, 17, 40, 63, 511, 1023}
	weights := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	dst := make([]float64, len(ages))
	// Warm the scratch buffers once.
	if _, err := tr.InnerProduct(ages, weights); err != nil {
		t.Fatal(err)
	}
	if err := tr.ApproximateInto(dst, ages); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := tr.PointQuery(7); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("PointQuery allocates %v times per query, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := tr.InnerProduct(ages, weights); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("InnerProduct allocates %v times per query, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := tr.ApproximateInto(dst, ages); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ApproximateInto allocates %v times per query, want 0", allocs)
	}
}

// TestAnswerBatchDoesNotAllocate: the batched entry point shares the
// pooled scratch with the single-query path, so a warm batch is
// allocation-free end to end — including the age map it builds once
// per batch (mapAges, claim, at).
func TestAnswerBatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; pooled query scratch is not allocation-free there")
	}
	var (
		_ = (*treeState).mapAges
		_ = (*ageMap).claim
		_ = (*ageMap).at
	)
	small := []query.Query{
		{Ages: []int{0, 3, 17, 511}, Weights: []float64{4, 3, 2, 1}},
		{Ages: []int{1, 2}, Weights: []float64{0.5, 0.5}},
		{Ages: []int{1023}, Weights: []float64{1}},
	}
	// The query-node benchmark frame: 64 random exponential queries of
	// length up to 64 over N=4096.
	gen, err := query.NewGenerator(query.Exponential, query.Random, 4096, 64, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]query.Query, 64)
	for i := range frame {
		frame[i] = gen.Next()
	}
	// A MinLevel-2 tree three arrivals past a refresh: its newest ages
	// are uncovered and served from the fallback node.
	midCycle := warmTree(t, Options{WindowSize: 1024, Coefficients: 4, MinLevel: 2})
	for i := 0; i < 3; i++ {
		midCycle.Update(float64(i))
	}
	if _, err := midCycle.CoverNodes([]int{0}); err == nil {
		t.Fatal("mid-cycle tree covers age 0; want it served by the fallback")
	}
	for _, c := range []struct {
		name string
		tr   *Tree
		qs   []query.Query
	}{
		{"small", warmTree(t, Options{WindowSize: 1024, Coefficients: 4}), small},
		{"query-node frame", warmTree(t, Options{WindowSize: 4096, Coefficients: 4}), frame},
		{"mid-cycle MinLevel 2", midCycle, small},
	} {
		dst := make([]float64, len(c.qs))
		// Warm the scratch buffers once.
		if err := c.tr.AnswerBatch(dst, c.qs); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			if err := c.tr.AnswerBatch(dst, c.qs); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: AnswerBatch allocates %v times per batch, want 0", c.name, allocs)
		}
	}
}

// TestRestoredTreeDoesNotAllocate: a tree restored from a snapshot must
// rejoin the zero-allocation arrival path (the restore fills the
// pre-sized buffers rather than growing fresh ones).
func TestRestoredTreeDoesNotAllocate(t *testing.T) {
	orig := warmTree(t, Options{WindowSize: 256, Coefficients: 4})
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Options{WindowSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	src := stream.Uniform(8)
	if allocs := testing.AllocsPerRun(1000, func() {
		restored.Update(src.Next())
	}); allocs != 0 {
		t.Errorf("restored tree allocates %v times per arrival, want 0", allocs)
	}
}

// TestAppendSummaryDoesNotAllocate pins the synopsis-shipping hot path
// (AppendSummary and its locked body appendSummary): exporting into a
// reused buffer is allocation-free, so periodic aggregation ticks add
// no GC pressure.
func TestAppendSummaryDoesNotAllocate(t *testing.T) {
	tr := warmTree(t, Options{WindowSize: 1024, Coefficients: 4})
	// Grow the buffer once.
	buf := tr.AppendSummary(nil)
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = tr.AppendSummary(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendSummary allocates %v times per export, want 0", allocs)
	}
	if _, err := DecodeSummary(buf); err != nil {
		t.Fatalf("exported frame does not decode: %v", err)
	}
}

// TestDecodeSummaryAllocs pins the receiving side of summary shipment
// at a fixed allocation count whatever the window: the Summary, its
// ring, its node list and one array backing every node's coefficients.
// Node names are formatted only when a read fails, so an accepted
// summary formats nothing.
func TestDecodeSummaryAllocs(t *testing.T) {
	for _, opts := range []Options{
		{WindowSize: 1024},
		{WindowSize: 65536, Coefficients: 4},
	} {
		frame := warmTree(t, opts).AppendSummary(nil)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeSummary(frame); err != nil {
				t.Fatal(err)
			}
		}); allocs > 4 {
			t.Errorf("%+v: DecodeSummary allocates %v times per summary, want at most 4", opts, allocs)
		}
	}
}

// TestInstallInPlaceDoesNotAllocate pins the install step of summary
// handoff: decoding into a reused Summary (DecodeSummaryInto) and
// ResetToSummary into an untainted tree of the same geometry overwrite
// memory that already exists, so a receiver installs summary after
// summary without allocating. Two different source states alternate,
// so every install really rewrites the tree.
func TestInstallInPlaceDoesNotAllocate(t *testing.T) {
	opts := Options{WindowSize: 1024, Coefficients: 1}
	frames := [][]byte{
		warmTree(t, opts).AppendSummary(nil),
		feedTree(t, opts, stream.Uniform(4), 3*opts.WindowSize+5).AppendSummary(nil),
	}
	recv := warmTree(t, opts)
	var s Summary
	i := 0
	install := func() {
		if err := DecodeSummaryInto(&s, frames[i%2]); err != nil {
			t.Fatal(err)
		}
		if err := recv.ResetToSummary(&s); err != nil {
			t.Fatal(err)
		}
		i++
	}
	install() // grow the scratch summary once
	if allocs := testing.AllocsPerRun(100, install); allocs != 0 {
		t.Errorf("decode into a reused summary plus in-place install allocates %v times, want 0", allocs)
	}
	if got := recv.AppendSummary(nil); !bytes.Equal(got, frames[(i-1)%2]) {
		t.Error("installed tree does not re-encode to the installed summary")
	}
}

// TestBoundedQueryDoesNotAllocate pins the bounded query path — the
// shared body approximateBounds and its taint helper widenedBound —
// at zero steady-state allocations, including on a tainted tree where
// the span scan actually runs.
func TestBoundedQueryDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; pooled query scratch is not allocation-free there")
	}
	// These guards vouch for the locked bodies the public entry points
	// delegate to.
	var (
		_ = (*treeState).approximateBounds
		_ = (*treeState).widenedBound
	)
	tr := warmTree(t, Options{WindowSize: 1024, Coefficients: 4})
	other := warmTree(t, Options{WindowSize: 1024, Coefficients: 4})
	// A skewed merge taints the tree so widenedBound has spans to scan.
	other.Update(0.5)
	if err := tr.Merge(other, MergeOptions{ValueLo: 0, ValueHi: 1}); err != nil {
		t.Fatal(err)
	}
	if len(tr.TaintSpans()) == 0 {
		t.Fatal("expected a tainted tree")
	}
	ages := []int{0, 1, 2, 3, 9, 17, 40, 63, 511, 1023}
	weights := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	// Warm the scratch buffers once.
	if _, _, err := tr.BoundedInnerProduct(ages, weights); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := tr.BoundedPoint(7); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("BoundedPoint allocates %v times per query, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := tr.BoundedInnerProduct(ages, weights); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("BoundedInnerProduct allocates %v times per query, want 0", allocs)
	}
}
