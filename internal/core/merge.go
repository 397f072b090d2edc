package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/streamsum/swat/internal/wavelet"
)

// This file implements the merge operator over SWAT summaries: the
// primitive behind cross-shard roll-ups (internal/multi), aggregator
// nodes collecting swatd synopses (internal/wire), and summary-shipping
// replica repair (internal/netsim).
//
// # Semantics
//
// Merging summarizes the SUM of the source streams, time-aligned on
// arrival counts: the merged tree answers queries as if it had consumed
// a stream whose i-th value is the sum of the sources' i-th values.
// Block averages are linear, so for sources with equal geometry and
// equal arrival counts the merge is exact (up to floating-point
// rounding): every merged coefficient equals the coefficient a twin
// tree replaying the summed stream would hold, because the refresh
// schedule depends only on the arrival counter.
//
// # Reconciliation and alignment
//
// Sources may disagree in three ways, each resolved toward the
// coarser side with quantified error:
//
//   - Coefficient budgets: the merged tree keeps k = min(k_a, k_b);
//     finer nodes are reduced by pairwise averaging, which is exact —
//     coarser block averages are means of finer ones.
//   - Maintained levels: the merged tree keeps minLevel = max; the
//     coarser ring is extended with the finer tree's own
//     approximations, each entry tainted by its distance bound to the
//     declared per-stream value range.
//   - Arrival counts: the summary that is Δ arrivals behind is
//     fast-forwarded by feeding Δ midpoint values of the declared
//     range through the ordinary update algorithm (capped at 3·N — by
//     then the lagging window has slid entirely into synthetic
//     territory, so a fresh warm-up is equivalent and cheaper). Every
//     synthetic index is tainted with half the declared range.
//
// The taint spans compose into closed-form widened bounds: a block
// average over blk indices of which ov are tainted by Half moves by at
// most Half·ov/blk, which the bounded query entry points (query.go)
// aggregate per answered age. Bounds hold as long as the sources honor
// the declared range.
//
// # Algebra
//
// Merge is commutative bit-for-bit (IEEE addition commutes, and span
// normalization sorts), associative up to floating-point rounding and
// taint-span coalescing, and has the empty summary (Arrivals == 0) as
// identity. Self-merge doubles the summarized mass — coefficients,
// ring, and stream count — while arrivals, geometry, and the refresh
// schedule stay fixed (the union of a stream with itself is its
// doubling, not a longer stream). The property suite in
// merge_property_test.go pins all of this.

// maxTaintSpans caps the taint list carried by a summary; beyond it the
// closest spans are coalesced (union interval, summed half-widths),
// which is conservative because per-index contributions add.
const maxTaintSpans = 32

// fastForwardFactor caps skew fast-forwarding at factor·N synthetic
// arrivals: warm-up completes within 3·2^(levels-1) < 3·N arrivals, so
// a fresh state warmed on synthetic midpoints is equivalent to — and
// cheaper than — replaying an arbitrarily long synthetic gap.
const fastForwardFactor = 3

// ErrRangeRequired reports a merge that needs MergeOptions to declare
// the per-stream value range: aligning skewed arrival counts or
// raising a summary's minLevel synthesizes values, and without a
// declared range their error cannot be bounded.
var ErrRangeRequired = errors.New("core: merge needs a declared MergeOptions value range to align skewed or level-mismatched summaries")

// MergeOptions parameterizes a merge. The zero value works for
// perfectly aligned inputs (equal arrivals, equal minLevel); any merge
// that must synthesize values requires the range to be declared.
type MergeOptions struct {
	// ValueLo and ValueHi declare the closed range every individual
	// source stream's values lie in, mirroring netsim's staleness-bound
	// convention. The merge scales the range by a summary's stream
	// count when synthesizing values for an already-merged input.
	// Both zero means undeclared. The widened bounds are guarantees
	// only insofar as the sources honor the range.
	ValueLo, ValueHi float64
}

// declared reports whether the caller provided a range.
func (o MergeOptions) declared() bool { return o.ValueLo != 0 || o.ValueHi != 0 }

// Declared reports whether a value range was provided — callers that
// degrade gracefully (cluster scatter-gather) test this before relying
// on stand-in synthesis.
func (o MergeOptions) Declared() bool { return o.declared() }

// check validates the options themselves.
func (o MergeOptions) check() error {
	if math.IsNaN(o.ValueLo) || math.IsNaN(o.ValueHi) ||
		math.IsInf(o.ValueLo, 0) || math.IsInf(o.ValueHi, 0) {
		return fmt.Errorf("core: merge value range [%v,%v] must be finite", o.ValueLo, o.ValueHi)
	}
	if o.ValueHi < o.ValueLo {
		return fmt.Errorf("core: merge value range [%v,%v] inverted", o.ValueLo, o.ValueHi)
	}
	return nil
}

// MergeSummaries combines two summaries over the same window size into
// the summary of the time-aligned sum of their streams. Inputs are not
// mutated. An input with zero arrivals is the identity: the other
// input is returned (as a clone) unchanged. See the file comment for
// the reconciliation rules and error model.
func MergeSummaries(a, b *Summary, o MergeOptions) (*Summary, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: merge left input: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("core: merge right input: %w", err)
	}
	if a.WindowSize != b.WindowSize {
		return nil, fmt.Errorf("core: merge window sizes %d and %d differ", a.WindowSize, b.WindowSize)
	}
	if a.Arrivals == 0 {
		return b.Clone(), nil
	}
	if b.Arrivals == 0 {
		return a.Clone(), nil
	}
	minLevel := a.MinLevel
	if b.MinLevel > minLevel {
		minLevel = b.MinLevel
	}
	k := a.Coefficients
	if b.Coefficients < k {
		k = b.Coefficients
	}
	ca, err := reconcileGeometry(a, minLevel, k, o)
	if err != nil {
		return nil, fmt.Errorf("core: merge left input: %w", err)
	}
	cb, err := reconcileGeometry(b, minLevel, k, o)
	if err != nil {
		return nil, fmt.Errorf("core: merge right input: %w", err)
	}
	target := ca.Arrivals
	if cb.Arrivals > target {
		target = cb.Arrivals
	}
	if ca, err = fastForward(ca, target, o); err != nil {
		return nil, fmt.Errorf("core: merge left input: %w", err)
	}
	if cb, err = fastForward(cb, target, o); err != nil {
		return nil, fmt.Errorf("core: merge right input: %w", err)
	}
	// ca is a private copy by now (reconcileGeometry clones), so the
	// aligned sum can land in it.
	if err := addAligned(ca, cb); err != nil {
		return nil, err
	}
	return ca, nil
}

// Accumulate folds s into the caller-owned accumulator acc and returns
// a result bit-identical to MergeSummaries(acc, s, o). When both share
// geometry and a nonzero arrival count — every step of a roll-up over
// aligned streams — s is added into acc in place and acc itself comes
// back, skipping the copies a general merge makes; otherwise acc is
// left untouched and the result is MergeSummaries'. Either way, use the
// returned summary from then on. s is never modified.
func Accumulate(acc, s *Summary, o MergeOptions) (*Summary, error) {
	if acc.Arrivals == 0 || acc.Arrivals != s.Arrivals || acc.WindowSize != s.WindowSize ||
		acc.MinLevel != s.MinLevel || acc.Coefficients != s.Coefficients ||
		o.check() != nil || acc.Validate() != nil || s.Validate() != nil {
		// Identities, reconciliation, and every error the general merge
		// reports.
		return MergeSummaries(acc, s, o)
	}
	if err := addAligned(acc, s); err != nil {
		return nil, err
	}
	return acc, nil
}

// AccumulateTree folds the live tree t into acc without exporting it:
// the result is bit-identical to Accumulate(acc, t.Export(), o). It
// applies when acc validates and matches t in geometry and in a
// nonzero arrival count and t is warm (every node valid) — every step
// of a roll-up over aligned streams. Then t's ring, coefficients and
// taint are added into acc in place under t's read lock, and applied
// is true; on error acc is unchanged. Otherwise nothing is touched and
// applied is false: the caller takes the export path.
func AccumulateTree(acc *Summary, t *Tree, o MergeOptions) (applied bool, err error) {
	if acc.Arrivals == 0 || o.check() != nil || acc.Validate() != nil {
		return false, nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if acc.Arrivals != t.arrivals || acc.WindowSize != t.n || acc.MinLevel != t.minLevel ||
		acc.Coefficients != t.k || !t.ready() {
		return false, nil
	}
	return true, t.addTo(acc)
}

// MergedTree merges two live trees into a new one, leaving both inputs
// untouched.
func MergedTree(a, b *Tree, o MergeOptions) (*Tree, error) {
	s, err := MergeSummaries(a.Export(), b.Export(), o)
	if err != nil {
		return nil, err
	}
	return FromSummary(s)
}

// Merge folds another tree into the receiver, which afterwards
// summarizes the time-aligned sum of both streams. Reconciliation may
// coarsen the receiver's geometry (minLevel rises to the maximum,
// coefficient budget drops to the minimum of the two inputs). The
// replacement state is published atomically under the writer lock, so
// concurrent queries see either the old or the merged tree, never a
// mixture; compiled plans recompile on their next Eval.
func (t *Tree) Merge(other *Tree, o MergeOptions) error {
	return t.MergeSummary(other.Export(), o)
}

// MergeSummary folds an exported summary into the receiver; see Merge.
func (t *Tree) MergeSummary(s *Summary, o MergeOptions) error {
	merged, err := MergeSummaries(t.Export(), s, o)
	if err != nil {
		return err
	}
	return t.ResetToSummary(merged)
}

// AdvanceSummary returns s advanced to the target arrival count by
// synthesizing midpoint values of the declared (stream-scaled) range
// through the ordinary update algorithm — the same machinery skewed
// merges use internally — tainting the synthetic suffix so bounds
// widen instead of lying. This is how a gatherer reconciles a shard
// that verifiably lags the count the client knows it shipped: advance
// its summary to that count, then merge. The taint covers the lag only
// while the missing values are the newest. When values arrived after
// the gap (a healed partition, a shed batch), they sit at the wrong
// ages with no taint of their own (ROADMAP: mid-stream gaps break
// arrival alignment). target below s.Arrivals is an error; a target
// equal to it returns a clone.
func AdvanceSummary(s *Summary, target int64, o MergeOptions) (*Summary, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := o.check(); err != nil {
		return nil, err
	}
	if target < s.Arrivals {
		return nil, fmt.Errorf("core: cannot advance summary backwards from %d to %d arrivals", s.Arrivals, target)
	}
	out := s.Clone()
	if target == s.Arrivals {
		return out, nil
	}
	if s.Arrivals == 0 && s.Streams == 0 {
		// A never-fed export: give the synthesis a stream to scale by.
		out.Streams = 1
	}
	return fastForward(out, target, o)
}

// UnknownSummary builds the summary of `streams` source streams whose
// values were never observed: every index holds the midpoint of the
// declared (stream-scaled) range and is tainted by streams·(hi−lo)/2,
// so merging it stands in for an unreachable shard with honest widened
// bounds instead of silently under-counting. Cluster scatter-gather
// (internal/cluster) merges one of these per stream stranded behind a
// partition, which is what turns a partial gather into a quorum answer
// whose bounds still cover the truth. arrivals must be > 0 for the
// stand-in to participate in a merge (a zero-arrival summary is the
// merge identity), and the range must be declared.
func UnknownSummary(opts Options, streams int, arrivals int64, o MergeOptions) (*Summary, error) {
	if streams < 1 {
		return nil, fmt.Errorf("core: unknown summary needs at least 1 stream, got %d", streams)
	}
	if arrivals < 0 {
		return nil, fmt.Errorf("core: unknown summary claims negative arrivals %d", arrivals)
	}
	if err := o.check(); err != nil {
		return nil, err
	}
	st, err := newState(opts)
	if err != nil {
		return nil, err
	}
	st.streams = streams
	s := st.exportSummary()
	if arrivals == 0 {
		return s, nil
	}
	if !o.declared() {
		return nil, ErrRangeRequired
	}
	return fastForward(s, arrivals, o)
}

// reconcileGeometry clones s into the target geometry: the coefficient
// budget is reduced exactly by pairwise averaging, and a raised
// minLevel extends the ring with the finer tree's own approximations
// (tainted against the declared range) before the finer levels are
// dropped.
func reconcileGeometry(s *Summary, minLevel, k int, o MergeOptions) (*Summary, error) {
	out := s.Clone()
	if k < out.Coefficients {
		for i := range out.Nodes {
			nd := &out.Nodes[i]
			target := coeffLenFor(nd.Level, k)
			if !nd.Valid || len(nd.Coeffs) <= target {
				continue
			}
			red, err := wavelet.AveragesInPlace(nd.Coeffs, target)
			if err != nil {
				// Unreachable: both lengths are powers of two.
				return nil, fmt.Errorf("core: reducing %v%d coefficients: %w", nd.Role, nd.Level, err)
			}
			nd.Coeffs = red
		}
		out.Coefficients = k
	}
	if minLevel > out.MinLevel {
		ringCap := int64(1) << uint(minLevel+1)
		effLen := out.Arrivals
		if effLen > ringCap {
			effLen = ringCap
		}
		newRing := make([]float64, effLen)
		copy(newRing, out.Ring)
		if int(effLen) > len(out.Ring) {
			// The coarser ring reaches further back than the finer one;
			// reconstruct the older entries from the finer tree itself.
			if !o.declared() {
				return nil, ErrRangeRequired
			}
			tree, err := FromSummary(out)
			if err != nil {
				// Unreachable: out came from a validated clone.
				return nil, err
			}
			scale := float64(out.Streams)
			lo, hi := scale*o.ValueLo, scale*o.ValueHi
			var worst float64
			for age := len(out.Ring); age < int(effLen); age++ {
				v, err := tree.PointQuery(age)
				var h float64
				if err != nil {
					// Cold tree: fall back to the range midpoint.
					v, h = (lo+hi)/2, (hi-lo)/2
				} else {
					// The true value lies in [lo,hi]; the reconstruction
					// can be off by at most its distance to the far edge.
					h = hi - v
					if d := v - lo; d > h {
						h = d
					}
				}
				newRing[age] = v
				if h > worst {
					worst = h
				}
			}
			if worst > 0 {
				out.Taint = append(out.Taint, TaintSpan{
					From: out.Arrivals - effLen + 1,
					To:   out.Arrivals - int64(len(out.Ring)),
					Half: worst,
				})
			}
		}
		out.Ring = newRing
		keep := out.Nodes[:0]
		for _, nd := range out.Nodes {
			if nd.Level >= minLevel {
				keep = append(keep, nd)
			}
		}
		out.Nodes = keep
		out.MinLevel = minLevel
	}
	return out, nil
}

// fastForward advances a (privately owned) summary to the target
// arrival count by feeding synthetic midpoint values of the declared
// range through the ordinary update algorithm, tainting every
// synthetic index with half the (stream-scaled) range. Gaps beyond
// fastForwardFactor·N are served by warming a fresh state instead —
// equivalent, since the real window has slid entirely past by then.
func fastForward(s *Summary, target int64, o MergeOptions) (*Summary, error) {
	d := target - s.Arrivals
	if d == 0 {
		return s, nil
	}
	if !o.declared() {
		return nil, ErrRangeRequired
	}
	scale := float64(s.Streams)
	lo, hi := scale*o.ValueLo, scale*o.ValueHi
	mid, half := (lo+hi)/2, (hi-lo)/2
	warm := int64(fastForwardFactor) * int64(s.WindowSize)
	var (
		st   *treeState
		from int64
	)
	if d <= warm {
		var err error
		if st, err = stateFromSummary(s); err != nil {
			// Unreachable: s was validated by the merge entry point.
			return nil, err
		}
		st.feedConstant(mid, d)
		from = s.Arrivals + 1
	} else {
		st, _ = newState(s.options())
		st.streams = s.Streams
		st.nodeUpdates = s.NodeUpdates
		st.arrivals = target - warm
		// Keep the ring head where a tree that grew here naturally
		// would hold it, preserving the canonical encoding.
		st.recentHead = int(uint64(st.arrivals) & uint64(st.recentMask))
		st.feedConstant(mid, warm)
		from = target - warm + 1
	}
	out := st.exportSummary()
	if half > 0 {
		out.Taint = append(out.Taint, TaintSpan{From: from, To: target, Half: half})
	}
	return out, nil
}

// feedConstant feeds count copies of v through the batch path, a
// fixed-size chunk at a time.
func (t *treeState) feedConstant(v float64, count int64) {
	var chunk [256]float64
	for i := range chunk {
		chunk[i] = v
	}
	for count > 0 {
		n := min(count, int64(len(chunk)))
		t.updateBatch(chunk[:n])
		count -= n
	}
}

// addAligned adds b into a, two summaries of identical geometry and
// arrival count: the one place the aligned-merge arithmetic lives.
// Nodes combine where both sides are valid (births must agree — the
// refresh schedule is a pure function of the arrival counter, so a
// divergence means the inputs were not what they claim); a one-sided
// validity leaves the merged node invalid, which degrades query
// resolution but never correctness. On error a is unchanged.
func addAligned(a, b *Summary) error {
	if len(a.Ring) != len(b.Ring) || len(a.Nodes) != len(b.Nodes) {
		return errShape
	}
	for i := range a.Nodes {
		na, nb := &a.Nodes[i], &b.Nodes[i]
		if na.Valid && nb.Valid && na.Birth != nb.Birth {
			return errBirths(na, nb.Birth)
		}
	}
	a.Streams += b.Streams
	if b.NodeUpdates > a.NodeUpdates {
		a.NodeUpdates = b.NodeUpdates
	}
	for i := range a.Ring {
		a.Ring[i] += b.Ring[i]
	}
	for i := range a.Nodes {
		na, nb := &a.Nodes[i], &b.Nodes[i]
		if !na.Valid || !nb.Valid {
			*na = SummaryNode{Level: na.Level, Role: na.Role}
			continue
		}
		for j := range na.Coeffs {
			na.Coeffs[j] += nb.Coeffs[j]
		}
	}
	a.Taint = normalizeTaint(append(a.Taint, b.Taint...), a.Arrivals, a.WindowSize)
	return nil
}

// addTo is addAligned(a, t's export) without the export, for a warm
// state whose geometry and arrival count a shares; the caller holds
// t's lock. On error a is unchanged.
func (t *treeState) addTo(a *Summary) error {
	if len(a.Ring) != t.recentLen || len(a.Nodes) != t.numNodes() {
		return errShape
	}
	i := 0
	for l := t.minLevel; l < t.levels; l++ {
		for role := Right; int(role) < t.rolesAt(l); role++ {
			if na := &a.Nodes[i]; na.Valid && na.Birth != t.nodes[l][role].birth {
				return errBirths(na, t.nodes[l][role].birth)
			}
			i++
		}
	}
	a.Streams += t.streams
	if t.nodeUpdates > a.NodeUpdates {
		a.NodeUpdates = t.nodeUpdates
	}
	for age := range a.Ring {
		a.Ring[age] += t.ringAt(age)
	}
	i = 0
	for l := t.minLevel; l < t.levels; l++ {
		for role := Right; int(role) < t.rolesAt(l); role++ {
			na := &a.Nodes[i]
			i++
			if !na.Valid {
				*na = SummaryNode{Level: na.Level, Role: na.Role}
				continue
			}
			for j, c := range t.nodes[l][role].coeffs {
				na.Coeffs[j] += c
			}
		}
	}
	a.Taint = normalizeTaint(append(a.Taint, t.taint...), a.Arrivals, a.WindowSize)
	return nil
}

// errShape reports aligned inputs whose ring or node counts differ,
// which validated inputs of equal geometry and arrivals never do.
var errShape = errors.New("core: internal error: aligned summaries disagree in shape")

// errBirths reports an aligned node whose births differ between the
// inputs, a's node na and the other side's birth.
func errBirths(na *SummaryNode, birth int64) error {
	return fmt.Errorf("core: merge: node %v%d births diverge (%d vs %d) despite equal arrivals", na.Role, na.Level, na.Birth, birth)
}

// normalizeTaint prunes spans no served block can reach anymore,
// clamps the survivors, sorts them, and coalesces the closest neighbors
// while the list exceeds maxTaintSpans. Coalescing is conservative:
// the union interval carries the sum of the half-widths, an upper
// bound on any index's combined contribution.
//
// The prune horizon is 2N behind the arrival counter, not N: a query
// age is always inside the window, but the block serving it belongs to
// a node whose segment (up to N values, born up to N−1 arrivals ago)
// can reach back to index arrivals−2N+2 — and tainted indices keep
// contaminating the coefficients built over them until the node
// itself expires.
func normalizeTaint(spans []TaintSpan, arrivals int64, n int) []TaintSpan {
	oldest := arrivals - 2*int64(n) + 2
	if oldest < 1 {
		oldest = 1
	}
	out := spans[:0]
	for _, sp := range spans {
		if sp.To < oldest || sp.Half == 0 {
			continue
		}
		if sp.From < oldest {
			sp.From = oldest
		}
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Half < out[j].Half
	})
	for len(out) > maxTaintSpans {
		best, bestGap := 1, int64(math.MaxInt64)
		for i := 1; i < len(out); i++ {
			if gap := out[i].From - out[i-1].To; gap < bestGap {
				best, bestGap = i, gap
			}
		}
		merged := TaintSpan{
			From: out[best-1].From,
			To:   out[best-1].To,
			Half: out[best-1].Half + out[best].Half,
		}
		if out[best].To > merged.To {
			merged.To = out[best].To
		}
		out[best-1] = merged
		out = append(out[:best], out[best+1:]...)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
