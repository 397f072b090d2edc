package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// encodeSummary is a summary's canonical encoding (AppendSummary).
func encodeSummary(t testing.TB, s *Summary) []byte {
	t.Helper()
	tr, err := FromSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr.AppendSummary(nil)
}

// FuzzAccumulateEquivalence pins Accumulate's and AccumulateTree's
// contracts: a left fold of Accumulate over 2–6 summaries encodes
// byte-identically, step by step, to the left fold of MergeSummaries,
// and never touches its right input; a third fold adds the live trees
// with AccumulateTree (taking Accumulate over the export wherever it
// declines) and must match Accumulate's fold bit for bit and error for
// error, apply exactly where Accumulate adds in place onto a warm tree,
// and leave every tree untouched. Inputs mix FuzzMergeEquivalence's
// geometries, skewed arrival counts, cold trees and taint spans
// (tainted trees are rebuilt with FromSummary), so both in-place paths
// (with and without taint) and every reconciling path are covered; the
// geoms bits above the per-input ones switch to the fleet geometries
// N 1024 and N 4096, warm. Run via `make fuzz-smoke` and CI.
func FuzzAccumulateEquivalence(f *testing.F) {
	// seed, input count, base length, per-input skews (3 bits each),
	// per-input geometries (2 bits each) and table (bits 12–15),
	// per-input taint bits.
	f.Add(int64(1), uint8(4), uint16(96), uint32(0), uint16(0), uint8(0))           // aligned
	f.Add(int64(2), uint8(3), uint16(64), uint32(0x0C9), uint16(0), uint8(0))       // arrival-skewed
	f.Add(int64(3), uint8(2), uint16(80), uint32(0), uint16(0x4), uint8(0))         // k-mismatched
	f.Add(int64(4), uint8(3), uint16(70), uint32(0), uint16(0x28), uint8(0))        // minLevel-mismatched
	f.Add(int64(5), uint8(3), uint16(90), uint32(0), uint16(0), uint8(0x1B))        // tainted
	f.Add(int64(6), uint8(6), uint16(0), uint32(0x3FFFF), uint16(0xE4E), uint8(42)) // everything
	f.Add(int64(7), uint8(5), uint16(40), uint32(0), uint16(0x1000), uint8(0x06))   // N 1024, k 1: aligned, tainted
	f.Add(int64(8), uint8(4), uint16(10), uint32(0x048), uint16(0x2000), uint8(0))  // N 4096, k 4: skewed
	f.Fuzz(func(t *testing.T, seed int64, inputs uint8, length uint16, skews uint32, geoms uint16, taint uint8) {
		tables := [][]Options{
			{
				{WindowSize: 32},
				{WindowSize: 32, Coefficients: 2},
				{WindowSize: 32, Coefficients: 4, MinLevel: 2},
				{WindowSize: 32, Coefficients: 2, MinLevel: 3},
			},
			{
				{WindowSize: 1024},
				{WindowSize: 1024, Coefficients: 2},
				{WindowSize: 1024, MinLevel: 2},
				{WindowSize: 1024, Coefficients: 4, MinLevel: 1},
			},
			{
				{WindowSize: 4096, Coefficients: 4},
				{WindowSize: 4096, Coefficients: 2},
				{WindowSize: 4096, Coefficients: 4, MinLevel: 2},
				{WindowSize: 4096, Coefficients: 8, MinLevel: 1},
			},
		}
		table := tables[int(geoms>>12)%len(tables)]
		base := 0
		if n := table[0].WindowSize; n > 32 {
			base = 2*n - 300 // past warm-up (3N/2) at every length and skew
		}
		sums := make([]*Summary, 2+int(inputs)%5)
		trees := make([]*Tree, len(sums))
		for i := range sums {
			count := base + int(length%300) + 7*int(skews>>(3*i)&7)
			trees[i] = treeOver(t, table[geoms>>(2*i)&3], genValues(seed+int64(i), count, 0.05, 0.95))
			s := trees[i].Export()
			if taint>>i&1 == 1 && s.Arrivals > 0 {
				// A span that keeps the arrival count, so tainted inputs
				// still align, and sits apart from every other input's,
				// so the order spans are combined in shows.
				to := s.Arrivals - int64(i)%s.Arrivals
				s.Taint = append(s.Taint, TaintSpan{From: max(1, to-2), To: to, Half: 0.25 * float64(i+1)})
				tr, err := FromSummary(s)
				if err != nil {
					t.Fatal(err)
				}
				trees[i] = tr
			}
			sums[i] = s
		}

		want, got, tacc := sums[0], sums[0].Clone(), sums[0].Clone()
		for i, s := range sums[1:] {
			tree := trees[i+1]
			before := encodeSummary(t, s)
			var errW, errG error
			want, errW = MergeSummaries(want, s, mergeRange)
			prev := got
			got, errG = Accumulate(got, s, mergeRange)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("step %d: MergeSummaries error %v, Accumulate error %v", i+1, errW, errG)
			}
			inPlace := errG == nil && got == prev
			applied, errT := AccumulateTree(tacc, tree, mergeRange)
			if applied != (inPlace && tree.Ready()) {
				t.Fatalf("step %d: AccumulateTree applied %v, Accumulate in place %v, tree warm %v", i+1, applied, inPlace, tree.Ready())
			}
			if !applied {
				tacc, errT = Accumulate(tacc, tree.Export(), mergeRange)
			}
			if fmt.Sprint(errT) != fmt.Sprint(errG) {
				t.Fatalf("step %d: AccumulateTree error %v, Accumulate error %v", i+1, errT, errG)
			}
			if !bytes.Equal(tree.AppendSummary(nil), before) {
				t.Fatalf("step %d: AccumulateTree modified its tree", i+1)
			}
			if errW != nil {
				return
			}
			if !bytes.Equal(encodeSummary(t, got), encodeSummary(t, want)) {
				t.Fatalf("step %d: Accumulate's fold encodes differently from MergeSummaries'", i+1)
			}
			if !summariesIdentical(tacc, got) {
				t.Fatalf("step %d: AccumulateTree's fold differs from Accumulate's", i+1)
			}
			if !bytes.Equal(encodeSummary(t, s), before) {
				t.Fatalf("step %d: Accumulate modified its right input", i+1)
			}
		}
	})
}

// TestAccumulateInPlace pins which path Accumulate takes: aligned
// inputs add into the accumulator and return it; anything needing
// reconciliation leaves it untouched and returns a fresh summary.
func TestAccumulateInPlace(t *testing.T) {
	opts := Options{WindowSize: 32, Coefficients: 2}
	a := treeOver(t, opts, genValues(1, 70, 0.05, 0.95)).Export()
	b := treeOver(t, opts, genValues(2, 70, 0.05, 0.95)).Export()
	got, err := Accumulate(a, b, mergeRange)
	if err != nil {
		t.Fatal(err)
	}
	if got != a || a.Streams != 2 {
		t.Errorf("aligned accumulate returned a new summary (or did not add): streams %d", a.Streams)
	}

	lag := treeOver(t, opts, genValues(3, 60, 0.05, 0.95)).Export()
	before := encodeSummary(t, a)
	got, err = Accumulate(a, lag, mergeRange)
	if err != nil {
		t.Fatal(err)
	}
	if got == a || !bytes.Equal(encodeSummary(t, a), before) {
		t.Error("skewed accumulate reused or modified the accumulator")
	}
	if _, err := Accumulate(a, lag, MergeOptions{}); err == nil {
		t.Error("skewed accumulate without a declared range succeeded")
	}
}

// TestAccumulateTreeApplies pins when AccumulateTree adds in place and
// that it fails like Accumulate over the export: aligned warm trees add
// into the accumulator; an empty accumulator, skewed or cold trees and
// a bad range are declined untouched; diverging births give
// Accumulate's error and leave the accumulator as it was.
func TestAccumulateTreeApplies(t *testing.T) {
	opts := Options{WindowSize: 32, Coefficients: 2}
	warm := treeOver(t, opts, genValues(2, 70, 0.05, 0.95))
	acc := treeOver(t, opts, genValues(1, 70, 0.05, 0.95)).Export()
	if applied, err := AccumulateTree(acc, warm, mergeRange); !applied || err != nil || acc.Streams != 2 {
		t.Fatalf("aligned warm tree: applied %v, err %v, streams %d", applied, err, acc.Streams)
	}

	empty, err := UnknownSummary(opts, 1, 0, mergeRange)
	if err != nil {
		t.Fatal(err)
	}
	before := encodeSummary(t, acc)
	for _, c := range []struct {
		name string
		acc  *Summary
		tree *Tree
		o    MergeOptions
	}{
		{"empty accumulator", empty, warm, mergeRange},
		{"skewed", acc, treeOver(t, opts, genValues(3, 71, 0.05, 0.95)), mergeRange},
		{"cold", treeOver(t, opts, genValues(4, 20, 0.05, 0.95)).Export(), treeOver(t, opts, genValues(5, 20, 0.05, 0.95)), mergeRange},
		{"k mismatch", acc, treeOver(t, Options{WindowSize: 32, Coefficients: 4}, genValues(6, 70, 0.05, 0.95)), mergeRange},
		{"bad range", acc, warm, MergeOptions{ValueLo: 1, ValueHi: 0}},
	} {
		if applied, err := AccumulateTree(c.acc, c.tree, c.o); applied || err != nil {
			t.Errorf("%s: applied %v, err %v; want declined", c.name, applied, err)
		}
	}
	if !bytes.Equal(encodeSummary(t, acc), before) {
		t.Error("a declined AccumulateTree modified the accumulator")
	}

	// Births on the refresh schedule but not the tree's: the summary
	// validates, the aligned add refuses.
	bad := acc.Clone()
	last := &bad.Nodes[len(bad.Nodes)-1]
	last.Birth -= int64(1) << uint(last.Level)
	want := bad.Clone()
	applied, errT := AccumulateTree(bad, warm, mergeRange)
	_, errA := Accumulate(bad.Clone(), warm.Export(), mergeRange)
	if !applied || errT == nil || fmt.Sprint(errT) != fmt.Sprint(errA) {
		t.Errorf("diverged births: applied %v, error %v; Accumulate's error %v", applied, errT, errA)
	}
	if !summariesIdentical(bad, want) {
		t.Error("a failed AccumulateTree modified the accumulator")
	}
}

// TestNodeFoldMatchesStreamFold bounds the price of folding by node:
// 512 aligned streams folded per node (each node in stream order) and
// then across nodes land within 1e-12 relative of the one per-stream
// fold in stream order, on every ring value and coefficient — float
// addition is not associative, but the drift is far below any bound a
// roll-up serves.
func TestNodeFoldMatchesStreamFold(t *testing.T) {
	opts := Options{WindowSize: 64, Coefficients: 2}
	const streams, nodes = 512, 3
	sums := make([]*Summary, streams)
	for i := range sums {
		sums[i] = treeOver(t, opts, genValues(int64(i+1), 3*64+5, 1, 100)).Export()
	}
	fold := func(acc, s *Summary) *Summary {
		t.Helper()
		if acc == nil {
			return s.Clone()
		}
		out, err := Accumulate(acc, s, MergeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var flat *Summary
	parts := make([]*Summary, nodes)
	for i, s := range sums {
		flat = fold(flat, s)
		n := int(uint32(i)*2654435761>>16) % nodes // a fixed scatter over the nodes
		parts[n] = fold(parts[n], s)
	}
	var byNode *Summary
	for _, p := range parts {
		byNode = fold(byNode, p)
	}

	if byNode.Streams != streams || flat.Streams != streams || len(byNode.Taint)+len(flat.Taint) != 0 {
		t.Fatalf("folds summarize %d and %d streams with taint %v / %v", byNode.Streams, flat.Streams, byNode.Taint, flat.Taint)
	}
	worst := 0.0
	check := func(what string, a, b float64) {
		rel := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
		if rel > 1e-12 {
			t.Errorf("%s: by-node %v, per-stream %v (relative %v)", what, a, b, rel)
		}
		worst = math.Max(worst, rel)
	}
	for i := range flat.Ring {
		check("ring", byNode.Ring[i], flat.Ring[i])
	}
	for i, nd := range flat.Nodes {
		for j, c := range nd.Coeffs {
			check(fmt.Sprintf("node %v%d", nd.Role, nd.Level), byNode.Nodes[i].Coeffs[j], c)
		}
	}
	t.Logf("worst relative difference %.3g", worst)
}

// TestMaxSummaryLen pins the bound transports size frames by: a warm
// tree carrying the merge cap plus one taint span encodes to exactly
// MaxSummaryLen, and invalid geometry is refused.
func TestMaxSummaryLen(t *testing.T) {
	for _, opts := range summaryGeometries() {
		s := treeOver(t, opts, genValues(5, 4*opts.WindowSize, 0.05, 0.95)).Export()
		for i := int64(0); i <= maxTaintSpans; i++ {
			s.Taint = append(s.Taint, TaintSpan{From: s.Arrivals - 2*i, To: s.Arrivals - 2*i, Half: 0.5})
		}
		want, err := MaxSummaryLen(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(encodeSummary(t, s)); got != want {
			t.Errorf("%+v: worst-case summary encodes to %d bytes, MaxSummaryLen says %d", opts, got, want)
		}
	}
	if _, err := MaxSummaryLen(Options{WindowSize: 48}); err == nil {
		t.Error("MaxSummaryLen accepted a window that is not a power of two")
	}
}
