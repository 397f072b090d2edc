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

// FuzzAccumulateEquivalence pins Accumulate's contract: a left fold of
// Accumulate over 2–6 summaries encodes byte-identically, step by step,
// to the left fold of MergeSummaries, and never touches its right
// input. Inputs mix FuzzMergeEquivalence's geometries, skewed arrival
// counts and taint spans, so both the in-place path (with and without
// taint) and every reconciling path are covered. Run via
// `make fuzz-smoke` and CI.
func FuzzAccumulateEquivalence(f *testing.F) {
	// seed, input count, base length, per-input skews (3 bits each),
	// per-input geometries (2 bits each), per-input taint bits.
	f.Add(int64(1), uint8(4), uint16(96), uint32(0), uint16(0), uint8(0))           // aligned
	f.Add(int64(2), uint8(3), uint16(64), uint32(0x0C9), uint16(0), uint8(0))       // arrival-skewed
	f.Add(int64(3), uint8(2), uint16(80), uint32(0), uint16(0x4), uint8(0))         // k-mismatched
	f.Add(int64(4), uint8(3), uint16(70), uint32(0), uint16(0x28), uint8(0))        // minLevel-mismatched
	f.Add(int64(5), uint8(3), uint16(90), uint32(0), uint16(0), uint8(0x1B))        // tainted
	f.Add(int64(6), uint8(6), uint16(0), uint32(0x3FFFF), uint16(0xE4E), uint8(42)) // everything
	f.Fuzz(func(t *testing.T, seed int64, inputs uint8, length uint16, skews uint32, geoms uint16, taint uint8) {
		table := []Options{
			{WindowSize: 32},
			{WindowSize: 32, Coefficients: 2},
			{WindowSize: 32, Coefficients: 4, MinLevel: 2},
			{WindowSize: 32, Coefficients: 2, MinLevel: 3},
		}
		sums := make([]*Summary, 2+int(inputs)%5)
		for i := range sums {
			count := int(length%300) + 7*int(skews>>(3*i)&7)
			s := treeOver(t, table[geoms>>(2*i)&3], genValues(seed+int64(i), count, 0.05, 0.95)).Export()
			if taint>>i&1 == 1 && s.Arrivals > 0 {
				// A span that keeps the arrival count, so tainted inputs
				// still align, and sits apart from every other input's,
				// so the order spans are combined in shows.
				to := s.Arrivals - int64(i)%s.Arrivals
				s.Taint = append(s.Taint, TaintSpan{From: max(1, to-2), To: to, Half: 0.25 * float64(i+1)})
			}
			sums[i] = s
		}

		want, got := sums[0], sums[0].Clone()
		for i, s := range sums[1:] {
			before := encodeSummary(t, s)
			var errW, errG error
			want, errW = MergeSummaries(want, s, mergeRange)
			got, errG = Accumulate(got, s, mergeRange)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("step %d: MergeSummaries error %v, Accumulate error %v", i+1, errW, errG)
			}
			if errW != nil {
				return
			}
			if !bytes.Equal(encodeSummary(t, got), encodeSummary(t, want)) {
				t.Fatalf("step %d: Accumulate's fold encodes differently from MergeSummaries'", i+1)
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

// TestExportIntoReusesStorage pins ExportInto: exporting into a used
// summary — of the same geometry or another, warm or cold — gives what
// Export gives, and once the storage has grown a warm export allocates
// nothing.
func TestExportIntoReusesStorage(t *testing.T) {
	warm := treeOver(t, Options{WindowSize: 64, Coefficients: 4}, genValues(1, 200, 0.05, 0.95))
	tainted, err := MergedTree(warm, treeOver(t, Options{WindowSize: 64, Coefficients: 4}, genValues(5, 180, 0.05, 0.95)), mergeRange)
	if err != nil {
		t.Fatal(err)
	}
	trees := []*Tree{
		warm,
		treeOver(t, Options{WindowSize: 64, Coefficients: 4}, genValues(2, 9, 0.05, 0.95)),
		treeOver(t, Options{WindowSize: 32, Coefficients: 2, MinLevel: 2}, genValues(3, 100, 0.05, 0.95)),
		tainted,
		treeOver(t, Options{WindowSize: 128, Coefficients: 8}, genValues(4, 300, 0.05, 0.95)),
		warm,
	}
	var scratch *Summary
	for i, tr := range trees {
		scratch = tr.ExportInto(scratch)
		if !summariesIdentical(scratch, tr.Export()) {
			t.Errorf("tree %d: ExportInto differs from Export", i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { scratch = warm.ExportInto(scratch) }); allocs != 0 {
		t.Errorf("warm ExportInto allocates %v times, want 0", allocs)
	}
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
