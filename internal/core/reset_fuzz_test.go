package core

import (
	"bytes"
	"fmt"
	"testing"
)

// resetGeoms are the geometries FuzzResetInPlaceEquivalence draws the
// receiving tree and each installed summary from: every MinLevel 0–3,
// k ∈ {1, 2, 4}, N ∈ {16, 32, 64}.
var resetGeoms = []Options{
	{WindowSize: 16, Coefficients: 1},
	{WindowSize: 16, Coefficients: 2, MinLevel: 1},
	{WindowSize: 32, Coefficients: 1},
	{WindowSize: 32, Coefficients: 4, MinLevel: 2},
	{WindowSize: 32, Coefficients: 2, MinLevel: 3},
	{WindowSize: 64, Coefficients: 1},
	{WindowSize: 64, Coefficients: 4, MinLevel: 1},
	{WindowSize: 16, Coefficients: 4, MinLevel: 3},
}

// FuzzResetInPlaceEquivalence holds ResetToSummary's in-place install
// to a fresh tree. A receiving tree with arbitrary prior history —
// cold or warm, tainted by a skewed merge or not, its node buffers
// rotated by further arrivals — installs two summaries in turn, each
// decoded into one reused Summary the way a handoff receiver does.
// Each summary is cold or warm, tainted (advanced past its arrivals)
// or not, and of the receiver's geometry (overwritten in place) or of
// another one (rebuilt). After every install the tree must match
// FromSummary of the same summary on a fresh tree: field by field, in
// AppendSummary bytes, and in PointQuery and BoundedPoint at every age;
// its Generation must have advanced strictly. It must still match once
// the scratch Summary is decoded into again, and after both trees take
// 3N further arrivals through UpdateBatch. Run via `make fuzz-smoke`.
//
// shape packs, from bit 0: the receiver's geometry, summary A's and
// summary B's (3 bits each, indexes into resetGeoms); whether the
// receiver, A and B are tainted (1 bit each); and whether A and B take
// the receiver's geometry instead of their own (1 bit each).
func FuzzResetInPlaceEquivalence(f *testing.F) {
	const (
		taintRecv = 1 << (9 + iota)
		taintA
		taintB
		sameA
		sameB
	)
	geoms := func(r, a, b uint32) uint32 { return r | a<<3 | b<<6 }
	for g := uint32(0); g < uint32(len(resetGeoms)); g++ {
		// Warm into warm, in place.
		f.Add(int64(g), uint16(200), uint16(150), uint16(300), geoms(g, g, g)|sameA|sameB)
		// Cold into warm and back, in place.
		f.Add(int64(g+10), uint16(300), uint16(3), uint16(180), geoms(g, g, g)|sameA|sameB)
		// Tainted into untainted and back, in place.
		f.Add(int64(g+20), uint16(100), uint16(120), uint16(90), geoms(g, g, g)|taintA|sameA|sameB)
		f.Add(int64(g+30), uint16(100), uint16(120), uint16(90), geoms(g, g, g)|taintRecv|taintB|sameA|sameB)
		f.Add(int64(g+50), uint16(100), uint16(120), uint16(90), geoms(g, g, g)|taintA|taintB|sameA|sameB)
		// Another geometry, then the receiver's own again.
		o := (g + 3) % uint32(len(resetGeoms))
		f.Add(int64(g+40), uint16(150), uint16(150), uint16(150), geoms(g, o, g)|taintA)
	}
	f.Fuzz(func(t *testing.T, seed int64, recvLen, lenA, lenB uint16, shape uint32) {
		geom := func(bits uint32) Options { return resetGeoms[int(bits&7)%len(resetGeoms)] }
		ro := geom(shape)
		// count folds a fuzzed length into [0, 4N): cold and warm trees.
		count := func(o Options, n uint16) int { return int(n) % (4 * o.WindowSize) }

		recv := treeOver(t, ro, genValues(seed, count(ro, recvLen), 0.05, 0.95))
		if shape&taintRecv != 0 {
			// A skewed merge taints the receiver (and may coarsen it);
			// more arrivals rotate its node buffers. Merges need equal
			// windows.
			lo := geom(shape >> 6)
			lo.WindowSize = ro.WindowSize
			lag := treeOver(t, lo, genValues(seed+1, count(ro, recvLen)/2, 0.05, 0.95))
			if err := recv.Merge(lag, mergeRange); err != nil {
				t.Fatal(err)
			}
			recv.UpdateBatch(genValues(seed+2, int(recvLen%7), 0.05, 0.95))
		}

		var (
			scratch Summary
			frames  [][]byte
			fresh   *Tree // FromSummary of the latest install
		)
		for i, spec := range []struct {
			bits    uint32
			n       uint16
			tainted bool
			same    bool
		}{
			{shape >> 3, lenA, shape&taintA != 0, shape&sameA != 0},
			{shape >> 6, lenB, shape&taintB != 0, shape&sameB != 0},
		} {
			so := geom(spec.bits)
			if spec.same {
				so = Options{WindowSize: recv.WindowSize(), Coefficients: recv.Coefficients(), MinLevel: recv.MinLevel()}
			}
			src := treeOver(t, so, genValues(seed+int64(10*i+3), count(so, spec.n), 0.05, 0.95))
			sum := src.Export()
			if spec.tainted {
				var err error
				if sum, err = AdvanceSummary(sum, sum.Arrivals+1+int64(spec.n%17), mergeRange); err != nil {
					t.Fatal(err)
				}
			}
			frame := rebuilt(t, sum).AppendSummary(nil)
			frames = append(frames, frame)
			if err := DecodeSummaryInto(&scratch, frame); err != nil {
				t.Fatal(err)
			}
			gen := recv.Generation()
			if err := recv.ResetToSummary(&scratch); err != nil {
				t.Fatal(err)
			}
			if g := recv.Generation(); g <= gen {
				t.Fatalf("install %d: generation %d did not advance past %d", i, g, gen)
			}
			fresh = rebuilt(t, sum)
			requireSameTree(t, fresh, recv, fmt.Sprintf("install %d", i))
			if !bytes.Equal(recv.AppendSummary(nil), frame) {
				t.Fatalf("install %d: tree re-encodes differently from the installed frame", i)
			}
		}

		// The tree must not alias the scratch summary: the next decode
		// into it, as a bundle's next entry would, leaves the tree as is.
		if err := DecodeSummaryInto(&scratch, frames[0]); err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, fresh, recv, "the scratch summary's reuse")

		// Both trees take 3N further arrivals in uneven batches.
		more := genValues(seed+99, 3*recv.WindowSize(), 0.05, 0.95)
		for off, step := 0, 1; off < len(more); off, step = off+step, step%13+2 {
			end := min(off+step, len(more))
			recv.UpdateBatch(more[off:end])
			fresh.UpdateBatch(more[off:end])
		}
		requireSameTree(t, fresh, recv, "3N further arrivals")
	})
}

// rebuilt is FromSummary on a fresh tree.
func rebuilt(t *testing.T, s *Summary) *Tree {
	t.Helper()
	tr, err := FromSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// requireSameTree requires got to match want field by field, in summary
// bytes, and in PointQuery and BoundedPoint at every age 0..N.
func requireSameTree(t *testing.T, want, got *Tree, when string) {
	t.Helper()
	if d := stateDiff(&want.treeState, &got.treeState); d != "" {
		t.Fatalf("%s: %s differs from a fresh tree's", when, d)
	}
	if !bytes.Equal(want.AppendSummary(nil), got.AppendSummary(nil)) {
		t.Fatalf("%s: summary bytes differ from a fresh tree's", when)
	}
	for age := 0; age <= want.WindowSize(); age++ {
		wv, werr := want.PointQuery(age)
		gv, gerr := got.PointQuery(age)
		if !sameErr(werr, gerr) || !sameBits(wv, gv) {
			t.Fatalf("%s: PointQuery(%d) = %v, %v; fresh tree %v, %v", when, age, gv, gerr, wv, werr)
		}
		wv, wb, werr := want.BoundedPoint(age)
		gv, gb, gerr := got.BoundedPoint(age)
		if !sameErr(werr, gerr) || !sameBits(wv, gv) || !sameBits(wb, gb) {
			t.Fatalf("%s: BoundedPoint(%d) = %v±%v, %v; fresh tree %v±%v, %v", when, age, gv, gb, gerr, wv, wb, werr)
		}
	}
}
