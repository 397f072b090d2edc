package multi

import (
	"fmt"

	"github.com/streamsum/swat/internal/core"
)

// Cross-shard roll-ups: folding another monitor's per-stream summaries
// into this one. A fleet of edge monitors can each summarize its local
// slice of a logical stream set and periodically merge into a regional
// aggregator, which then answers queries over the union with the merged
// trees' widened error bounds (see internal/core/merge.go for the
// merge semantics and bound model).

// MergeSummary folds an exported summary into the named stream's tree.
// An unregistered name is registered first, so merging into an empty
// aggregator works without pre-declaring the stream set. The monitor
// must not be durable: its WAL replays raw arrivals, which cannot
// reproduce a merged tree, so a restart would silently shed the merge.
func (m *Monitor) MergeSummary(name string, s *core.Summary, o core.MergeOptions) error {
	if err := m.mergeable(); err != nil {
		return err
	}
	idx, err := m.indexOf(name)
	if err != nil {
		if err = m.Add(name); err != nil {
			return fmt.Errorf("multi: merge into %q: %w", name, err)
		}
		if idx, err = m.indexOf(name); err != nil {
			return err
		}
	}
	return m.mergeAt(idx, name, s, o)
}

// MergeFrom folds every stream of src into the receiver, by name:
// streams present in both are merged (the receiver's tree afterwards
// summarizes the sum of both), streams only in src are registered and
// adopted as-is. src is read but never modified, and may be durable;
// the receiver must not be (see MergeSummary). Streams are merged in
// src's registration order; on error, streams already processed stay
// merged.
func (m *Monitor) MergeFrom(src *Monitor, o core.MergeOptions) error {
	if err := m.mergeable(); err != nil {
		return err
	}
	for _, name := range src.Streams() {
		tree, err := src.Tree(name)
		if err != nil {
			// The stream vanished between Streams and Tree; src is
			// append-only while open, so it must have been closed.
			return fmt.Errorf("multi: merge from %q: %w", name, err)
		}
		if err := m.MergeSummary(name, tree.Export(), o); err != nil {
			return err
		}
	}
	return nil
}

// FoldSummary folds the named streams into one summary of their
// time-aligned sum — the combiner step of a cluster roll-up, so one
// summary per node crosses the network instead of one per stream.
// Streams fold in names order. The first exports the accumulator;
// each later stream aligned with it (same arrival count, warm, not
// lagging sent[i]) is added straight from its tree
// (core.AccumulateTree), with no export. Any other stream is exported,
// advanced with tainted midpoints when it lags sent[i] (the count the
// caller shipped for it: the shard lost arrivals; core.AdvanceSummary
// says which gaps the taint covers), and accumulated. A name this
// monitor does not hold, a tree that has not warmed up, or a stream
// the fold rejects is left out, with its reason in refused[i]. The
// result is nil when nothing folded. The fold only reads the trees, so
// durable monitors are allowed.
func (m *Monitor) FoldSummary(names []string, sent []int64, o core.MergeOptions, refused []error) (*core.Summary, error) {
	if len(sent) != len(names) || len(refused) != len(names) {
		return nil, fmt.Errorf("multi: fold of %d streams given %d sent counts and %d refusal slots", len(names), len(sent), len(refused))
	}
	m.reg.RLock()
	if m.closed {
		m.reg.RUnlock()
		return nil, fmt.Errorf("multi: monitor closed")
	}
	trees := make([]*core.Tree, len(names))
	for i, name := range names {
		if idx, ok := m.byName[name]; ok {
			trees[i] = m.trees[idx]
		}
	}
	m.reg.RUnlock()

	var acc *core.Summary
	for i, tree := range trees {
		refused[i] = nil
		if tree == nil {
			refused[i] = fmt.Errorf("multi: unknown stream %q", names[i])
			continue
		}
		// A tree at acc's arrival count cannot lag sent[i] when acc
		// does not.
		if acc != nil && acc.Arrivals >= sent[i] {
			if applied, err := core.AccumulateTree(acc, tree, o); applied {
				if err != nil {
					refused[i] = fmt.Errorf("multi: fold %q: %w", names[i], err)
				}
				continue // a failed add leaves acc as it was
			}
		}
		s := tree.Export()
		if !warm(s) {
			refused[i] = fmt.Errorf("multi: stream %q is cold: its tree has not warmed up", names[i])
			continue
		}
		var err error
		if s.Arrivals < sent[i] {
			s, err = core.AdvanceSummary(s, sent[i], o)
		}
		if err == nil && acc != nil {
			s, err = core.Accumulate(acc, s, o)
		}
		if err != nil {
			refused[i] = fmt.Errorf("multi: fold %q: %w", names[i], err)
			continue // a failed Accumulate leaves acc as it was
		}
		acc = s
	}
	return acc, nil
}

// warm reports whether an exported tree could answer every age: all
// of its nodes are valid (Tree.Ready, on the snapshot).
func warm(s *core.Summary) bool {
	for _, nd := range s.Nodes {
		if !nd.Valid {
			return false
		}
	}
	return true
}

// InstallSummary replaces the named stream's state with the state the
// summary describes — the install step of summary handoff during live
// resharding (see internal/cluster.Rebalance). Unlike MergeSummary
// nothing is folded: afterwards the stream is exactly the tree the
// summary was exported from. An unregistered name is registered first.
// The install copies s into the stream's tree — in place when the
// geometry matches, without allocating — and keeps no reference to it,
// so the caller may reuse s at once (see core.DecodeSummaryInto).
// Durable monitors refuse, for the same reason merges do: the WAL
// replays raw arrivals and cannot reproduce an installed state.
func (m *Monitor) InstallSummary(name string, s *core.Summary) error {
	if err := m.mergeable(); err != nil {
		return err
	}
	idx, err := m.indexOf(name)
	if err != nil {
		if err = m.Add(name); err != nil {
			return fmt.Errorf("multi: install into %q: %w", name, err)
		}
		if idx, err = m.indexOf(name); err != nil {
			return err
		}
	}
	m.reg.RLock()
	tree := m.trees[idx]
	m.reg.RUnlock()
	sh := m.shardOf(idx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := tree.ResetToSummary(s); err != nil {
		return fmt.Errorf("multi: install into %q: %w", name, err)
	}
	m.arrived[idx] = tree.Arrivals()
	return nil
}

// mergeable rejects merging into closed or durable monitors.
func (m *Monitor) mergeable() error {
	m.reg.RLock()
	defer m.reg.RUnlock()
	if m.closed {
		return fmt.Errorf("multi: monitor closed")
	}
	if m.opts.DataDir != "" {
		return fmt.Errorf("multi: cannot merge into a durable monitor: its write-ahead log replays raw arrivals and would shed the merge on recovery")
	}
	return nil
}

// indexOf resolves a stream name under the registration read lock.
func (m *Monitor) indexOf(name string) (int, error) {
	m.reg.RLock()
	defer m.reg.RUnlock()
	idx, ok := m.byName[name]
	if !ok {
		return 0, fmt.Errorf("multi: unknown stream %q", name)
	}
	return idx, nil
}

// mergeAt performs the merge under the stream's shard lock, keeping the
// arrival counter coherent with the tree the way the ingest path does.
func (m *Monitor) mergeAt(idx int, name string, s *core.Summary, o core.MergeOptions) error {
	m.reg.RLock()
	tree := m.trees[idx]
	m.reg.RUnlock()
	sh := m.shardOf(idx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := tree.MergeSummary(s, o); err != nil {
		return fmt.Errorf("multi: merge into %q: %w", name, err)
	}
	// Alignment may have fast-forwarded the tree past locally observed
	// arrivals; the counter follows the tree.
	m.arrived[idx] = tree.Arrivals()
	return nil
}
