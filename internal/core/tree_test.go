package core

import (
	"math"
	"testing"

	"github.com/streamsum/swat/internal/stream"
)

func mustTree(t *testing.T, opts Options) *Tree {
	t.Helper()
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func feed(tr *Tree, vals ...float64) {
	for _, v := range vals {
		tr.Update(v)
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Options{
		{WindowSize: 0},
		{WindowSize: 3},
		{WindowSize: 2},
		{WindowSize: 12},
		{WindowSize: 16, Coefficients: 3},
		{WindowSize: 16, MinLevel: -1},
		{WindowSize: 16, MinLevel: 4},
	}
	for _, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("New(%+v) accepted invalid options", o)
		}
	}
	tr := mustTree(t, Options{WindowSize: 16})
	if tr.Coefficients() != 1 {
		t.Errorf("default coefficients = %d, want 1", tr.Coefficients())
	}
	if tr.Levels() != 4 || tr.WindowSize() != 16 || tr.MinLevel() != 0 {
		t.Errorf("geometry wrong: %d levels, N=%d, min=%d", tr.Levels(), tr.WindowSize(), tr.MinLevel())
	}
}

func TestNumNodesMatchesPaper(t *testing.T) {
	// Paper §2.6: "Tree T has 3·log N − 2 nodes."
	for _, n := range []int{4, 16, 256, 1024} {
		tr := mustTree(t, Options{WindowSize: n})
		want := 3*tr.Levels() - 2
		if tr.NumNodes() != want {
			t.Errorf("N=%d: NumNodes = %d, want %d", n, tr.NumNodes(), want)
		}
	}
	tr := mustTree(t, Options{WindowSize: 16, MinLevel: 2})
	if tr.NumNodes() != 4 {
		t.Errorf("reduced tree NumNodes = %d, want 4", tr.NumNodes())
	}
}

func TestRoleString(t *testing.T) {
	if Right.String() != "R" || Shift.String() != "S" || Left.String() != "L" {
		t.Error("role names wrong")
	}
	if Role(9).String() != "Role(9)" {
		t.Error("unknown role formatting wrong")
	}
}

func TestReadyTiming(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64} {
		tr := mustTree(t, Options{WindowSize: n})
		src := stream.Uniform(int64(n))
		for i := 0; i < n-1; i++ {
			tr.Update(src.Next())
			if tr.Ready() {
				t.Fatalf("N=%d: Ready after only %d arrivals", n, i+1)
			}
		}
		tr.Update(src.Next())
		if !tr.Ready() {
			t.Fatalf("N=%d: not Ready after %d arrivals", n, n)
		}
	}
}

// nodeValue extracts the single coefficient of a 1-coefficient node.
func nodeValue(t *testing.T, tr *Tree, level int, role Role) float64 {
	t.Helper()
	for _, ni := range tr.Nodes() {
		if ni.Level == level && ni.Role == role {
			if !ni.Valid {
				t.Fatalf("node %v%d not valid", role, level)
			}
			if len(ni.Coeffs) != 1 {
				t.Fatalf("node %v%d has %d coefficients", role, level, len(ni.Coeffs))
			}
			return ni.Coeffs[0]
		}
	}
	t.Fatalf("node %v%d not found", role, level)
	return 0
}

// TestPaperExecutionTrace replays the execution trace of paper Fig. 2
// (N=16): the initial window is chosen to satisfy the node values the
// trace states, then values 4, 6, 2, 10, 4 arrive and the node contents
// and covered segments are checked against the paper's text.
func TestPaperExecutionTrace(t *testing.T) {
	tr := mustTree(t, Options{WindowSize: 16})
	// Ages at the initial instant: d0=14, d1=12, d2=2, d3=4, d4=1, d5=1
	// (derived from the trace: R0=26/2, S0=14/2, R1=32/4, S1=8/4).
	// Remaining (older) values are free; use 1s. Feed chronologically.
	initial := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4, 2, 12, 14}
	feed(tr, initial...)
	if !tr.Ready() {
		t.Fatal("tree not ready after initial window")
	}
	check := func(level int, role Role, want float64) {
		t.Helper()
		if got := nodeValue(t, tr, level, role); math.Abs(got-want) > 1e-12 {
			t.Errorf("%v%d = %v, want %v", role, level, got, want)
		}
	}

	// t=0 state (paper Fig. 2(a) as constrained by the trace text).
	check(0, Right, 13) // 26/2
	check(0, Shift, 7)  // 14/2
	check(1, Right, 8)  // 32/4
	check(1, Shift, 2)  // 8/4

	// t=1: 4 arrives. "L0 gets 14/2, S0 gets 26/2, R0 stores 18/2."
	tr.Update(4)
	check(0, Left, 7)
	check(0, Shift, 13)
	check(0, Right, 9)

	// t=2: 6 arrives. "L0 gets 26/2, S0 gets 18/2, R0 stores 10/2.
	// L1 gets 8/4, S1 gets 32/4, R1 stores 36/4."
	tr.Update(6)
	check(0, Left, 13)
	check(0, Shift, 9)
	check(0, Right, 5)
	check(1, Left, 2)
	check(1, Shift, 8)
	check(1, Right, 9)

	// t=3: 2 arrives (paper Fig. 2(d)). Check the covered segments used
	// in the worked query example of §2.4: R0[0-1], S0[1-2], L0[2-3],
	// L1[5-8], S2[7-14].
	tr.Update(2)
	spans := map[string][2]int{
		"R0": {0, 1}, "S0": {1, 2}, "L0": {2, 3},
		"R1": {1, 4}, "S1": {3, 6}, "L1": {5, 8},
		"R2": {3, 10}, "S2": {7, 14}, "L2": {11, 18},
		"R3": {3, 18},
	}
	for _, ni := range tr.Nodes() {
		key := ni.Role.String() + string(rune('0'+ni.Level))
		want, ok := spans[key]
		if !ok {
			t.Errorf("unexpected node %s", key)
			continue
		}
		if ni.Start != want[0] || ni.End != want[1] {
			t.Errorf("%s covers [%d-%d], want [%d-%d]", key, ni.Start, ni.End, want[0], want[1])
		}
	}

	// §2.4 worked example: query ages {0,3,8,13} must be covered by
	// exactly V = {R0, L0, L1, S2} in that order.
	cover, err := tr.CoverNodes([]int{0, 3, 8, 13})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ni := range cover {
		got = append(got, ni.String())
	}
	want := []string{"R0[0-1]", "L0[2-3]", "L1[5-8]", "S2[7-14]"}
	if len(got) != len(want) {
		t.Fatalf("cover = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cover = %v, want %v", got, want)
		}
	}

	// Finish the trace: 10 and 4 arrive (Figs. 2(e),(f)). At t=4 levels
	// 0..2 refresh; check the level-1 combine of the fresh level-0 nodes.
	tr.Update(10)
	check(0, Right, 6)   // avg(2,10)
	check(0, Shift, 4)   // avg(6,2)
	check(0, Left, 5)    // avg(4,6)
	check(1, Right, 5.5) // avg(R0=6, L0=5)
	check(1, Shift, 9)   // old R1
	check(2, Shift, 4.5) // old R2 = avg of initial d0..d7
	tr.Update(4)
	check(0, Right, 7) // avg(10,4)
}

// TestOneCoefficientInvariant checks the central SWAT correctness
// property: with k=1, every valid node's coefficient equals the exact
// mean of the historical values it claims to cover.
func TestOneCoefficientInvariant(t *testing.T) {
	const n = 64
	tr := mustTree(t, Options{WindowSize: n})
	shadow, _ := stream.NewWindow(4 * n) // nodes can cover ages beyond N
	src := stream.Uniform(99)
	for i := 0; i < 10*n; i++ {
		v := src.Next()
		tr.Update(v)
		shadow.Push(v)
		if i < 2*n {
			continue
		}
		for _, ni := range tr.Nodes() {
			if !ni.Valid {
				t.Fatalf("invalid node %v after warm-up", ni)
			}
			want, err := shadow.Mean(ni.Start, ni.End)
			if err != nil {
				t.Fatalf("shadow mean for %v: %v", ni, err)
			}
			if math.Abs(ni.Coeffs[0]-want) > 1e-9 {
				t.Fatalf("arrival %d node %v: coeff %v != true mean %v", i, ni, ni.Coeffs[0], want)
			}
		}
	}
}

// TestKCoefficientInvariant extends the invariant to k>1: each stored
// block average equals the true mean of its block.
func TestKCoefficientInvariant(t *testing.T) {
	const n, k = 32, 4
	tr := mustTree(t, Options{WindowSize: n, Coefficients: k})
	shadow, _ := stream.NewWindow(4 * n)
	src := stream.RandomWalk(7, 50, 5, 0, 100)
	for i := 0; i < 6*n; i++ {
		v := src.Next()
		tr.Update(v)
		shadow.Push(v)
		if i < 2*n {
			continue
		}
		for _, ni := range tr.Nodes() {
			segLen := ni.End - ni.Start + 1
			block := segLen / len(ni.Coeffs)
			for b, c := range ni.Coeffs {
				lo := ni.Start + b*block
				want, err := shadow.Mean(lo, lo+block-1)
				if err != nil {
					t.Fatalf("shadow mean: %v", err)
				}
				if math.Abs(c-want) > 1e-9 {
					t.Fatalf("node %v block %d: %v != %v", ni, b, c, want)
				}
			}
		}
	}
}

// TestCoverageInvariant: once warm, every age in [0, N-1] is covered at
// every instant, for several window sizes.
func TestCoverageInvariant(t *testing.T) {
	for _, n := range []int{8, 32, 128} {
		tr := mustTree(t, Options{WindowSize: n})
		src := stream.Uniform(3)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		for i := 0; i < 5*n; i++ {
			tr.Update(src.Next())
			if i < n {
				continue
			}
			if _, err := tr.CoverNodes(all); err != nil {
				t.Fatalf("N=%d arrival %d: %v", n, i, err)
			}
		}
	}
}

// TestConstantStreamExact: a constant stream is answered with zero error
// by every query type.
func TestConstantStreamExact(t *testing.T) {
	tr := mustTree(t, Options{WindowSize: 32})
	feed(tr, make([]float64, 0)...)
	for i := 0; i < 96; i++ {
		tr.Update(42)
	}
	for age := 0; age < 32; age++ {
		v, err := tr.PointQuery(age)
		if err != nil {
			t.Fatal(err)
		}
		if v != 42 {
			t.Fatalf("PointQuery(%d) = %v, want 42", age, v)
		}
	}
	ip, err := tr.InnerProduct([]int{0, 5, 13, 31}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ip-42*10) > 1e-9 {
		t.Fatalf("InnerProduct = %v, want 420", ip)
	}
	matches, err := tr.RangeQuery(42, 0.5, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 32 {
		t.Fatalf("RangeQuery matched %d points, want 32", len(matches))
	}
	none, err := tr.RangeQuery(100, 1, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("RangeQuery matched %d points, want 0", len(none))
	}
}

func TestUpdateComplexityAmortizedConstant(t *testing.T) {
	tr := mustTree(t, Options{WindowSize: 1024})
	src := stream.Uniform(5)
	const total = 10240
	for i := 0; i < total; i++ {
		tr.Update(src.Next())
	}
	// Per N-arrival cycle the paper gives sum_l N/2^l < 2N node updates.
	if got := tr.NodeUpdates(); got > 2*total+uint64(tr.Levels()) {
		t.Errorf("NodeUpdates = %d for %d arrivals; amortized bound 2/arrival violated", got, total)
	}
	if tr.Arrivals() != total {
		t.Errorf("Arrivals = %d, want %d", tr.Arrivals(), total)
	}
}

func TestQueryValidation(t *testing.T) {
	tr := mustTree(t, Options{WindowSize: 16})
	for i := 0; i < 32; i++ {
		tr.Update(float64(i))
	}
	if _, err := tr.PointQuery(-1); err == nil {
		t.Error("accepted negative age")
	}
	if _, err := tr.PointQuery(16); err == nil {
		t.Error("accepted age >= N")
	}
	if _, err := tr.InnerProduct([]int{1, 2}, []float64{1}); err == nil {
		t.Error("accepted mismatched weight vector")
	}
	if _, err := tr.InnerProduct(nil, nil); err == nil {
		t.Error("accepted empty query")
	}
	if _, err := tr.RangeQuery(0, -1, 0, 3); err == nil {
		t.Error("accepted negative radius")
	}
	if _, err := tr.RangeQuery(0, 1, 5, 3); err == nil {
		t.Error("accepted inverted age range")
	}
	if _, err := tr.RangeQuery(0, 1, 0, 16); err == nil {
		t.Error("accepted out-of-window range")
	}
}

func TestColdTreeReturnsNotCovered(t *testing.T) {
	tr := mustTree(t, Options{WindowSize: 16})
	if _, err := tr.PointQuery(0); err == nil {
		t.Fatal("cold tree answered a query")
	}
	tr.Update(1)
	if _, err := tr.PointQuery(0); err == nil {
		t.Fatal("tree with one arrival answered a query")
	}
	_, err := tr.CoverNodes([]int{0, 3})
	nc, ok := err.(*ErrNotCovered)
	if !ok {
		t.Fatalf("err = %v, want *ErrNotCovered", err)
	}
	if len(nc.Ages) != 2 || nc.Ages[0] != 0 || nc.Ages[1] != 3 {
		t.Fatalf("uncovered ages = %v, want [0 3]", nc.Ages)
	}
	if nc.Error() == "" {
		t.Error("empty error message")
	}
}

// TestLevelReduction: a reduced tree still answers everything (via the
// best-effort fallback for transiently uncovered recent ages) and incurs
// more error on a drifting stream than the full tree.
func TestLevelReduction(t *testing.T) {
	full := mustTree(t, Options{WindowSize: 64})
	reduced := mustTree(t, Options{WindowSize: 64, MinLevel: 3})
	shadow, _ := stream.NewWindow(64)
	src := stream.Drift(0, 1)
	var fullErr, redErr float64
	for i := 0; i < 512; i++ {
		v := src.Next()
		full.Update(v)
		reduced.Update(v)
		shadow.Push(v)
		if i < 128 {
			continue
		}
		for _, age := range []int{0, 7, 31, 63} {
			want := shadow.MustAt(age)
			fv, err := full.PointQuery(age)
			if err != nil {
				t.Fatalf("full tree: %v", err)
			}
			rv, err := reduced.PointQuery(age)
			if err != nil {
				t.Fatalf("reduced tree: %v", err)
			}
			fullErr += math.Abs(fv - want)
			redErr += math.Abs(rv - want)
		}
	}
	if redErr <= fullErr {
		t.Errorf("reduced tree error %v not larger than full tree %v", redErr, fullErr)
	}
}

func TestReducedTreeCoversRecentAgesViaFallback(t *testing.T) {
	tr := mustTree(t, Options{WindowSize: 32, MinLevel: 2})
	for i := 0; i < 128; i++ {
		tr.Update(float64(i % 10))
	}
	// Advance to a mid-cycle instant where ages < start of the finest R
	// node are uncovered; Approximate must still answer.
	tr.Update(3)
	if _, err := tr.PointQuery(0); err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
}

func TestNodesSnapshotIsolation(t *testing.T) {
	tr := mustTree(t, Options{WindowSize: 16})
	for i := 0; i < 32; i++ {
		tr.Update(float64(i))
	}
	snap := tr.Nodes()
	snap[0].Coeffs[0] = -999
	if nodeValue(t, tr, snap[0].Level, snap[0].Role) == -999 {
		t.Error("Nodes() exposes internal coefficient storage")
	}
}

func TestInnerProductMatchesPointQueries(t *testing.T) {
	tr := mustTree(t, Options{WindowSize: 64})
	src := stream.RandomWalk(11, 50, 3, 0, 100)
	for i := 0; i < 192; i++ {
		tr.Update(src.Next())
	}
	ages := []int{0, 1, 2, 3, 9, 17, 40, 63}
	weights := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	ip, err := tr.InnerProduct(ages, weights)
	if err != nil {
		t.Fatal(err)
	}
	var manual float64
	for i, a := range ages {
		v, err := tr.PointQuery(a)
		if err != nil {
			t.Fatal(err)
		}
		manual += weights[i] * v
	}
	if math.Abs(ip-manual) > 1e-9 {
		t.Errorf("InnerProduct = %v, sum of point queries = %v", ip, manual)
	}
}

func TestDuplicateAgesInQuery(t *testing.T) {
	tr := mustTree(t, Options{WindowSize: 16})
	for i := 0; i < 48; i++ {
		tr.Update(5)
	}
	ip, err := tr.InnerProduct([]int{3, 3, 3}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ip-15) > 1e-9 {
		t.Errorf("InnerProduct with duplicate ages = %v, want 15", ip)
	}
}
