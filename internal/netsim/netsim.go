// Package netsim models the distributed setting of the paper's second
// half: a spanning-tree network with the stream source at the root and
// clients below it. It provides tree topologies (including the complete
// binary trees of the multi-client experiments, §5.3), hop distances, and
// message accounting by kind. Protocol logic lives in the replication,
// dc, and aps packages; they all run over this substrate so their message
// counts are directly comparable.
//
//swat:deterministic
//swat:server
package netsim

import (
	"fmt"
	"math/rand"
	"sort"
)

// NodeID identifies a node in a topology. The root (the stream source)
// is always node 0.
type NodeID int

// NoNode is the parent of the root.
const NoNode NodeID = -1

// Topology is a rooted tree of network nodes.
type Topology struct {
	parent   []NodeID
	children [][]NodeID
}

// NewTopology creates a topology containing only the root node 0.
func NewTopology() *Topology {
	return &Topology{parent: []NodeID{NoNode}, children: [][]NodeID{nil}}
}

// Len returns the number of nodes.
func (t *Topology) Len() int { return len(t.parent) }

// Root returns the root node ID.
func (t *Topology) Root() NodeID { return 0 }

// Valid reports whether id names a node of this topology.
func (t *Topology) Valid(id NodeID) bool {
	return id >= 0 && int(id) < len(t.parent)
}

// AddChild attaches a new node under parent and returns its ID.
func (t *Topology) AddChild(parent NodeID) (NodeID, error) {
	if !t.Valid(parent) {
		return NoNode, fmt.Errorf("netsim: invalid parent %d", parent)
	}
	id := NodeID(len(t.parent))
	t.parent = append(t.parent, parent)
	t.children = append(t.children, nil)
	t.children[parent] = append(t.children[parent], id)
	return id, nil
}

// Parent returns the parent of id (NoNode for the root).
func (t *Topology) Parent(id NodeID) NodeID {
	if !t.Valid(id) {
		return NoNode
	}
	return t.parent[id]
}

// IsLeaf reports whether id has no children.
func (t *Topology) IsLeaf(id NodeID) bool {
	return t.Valid(id) && len(t.children[id]) == 0
}

// Depth returns the number of edges from id to the root.
func (t *Topology) Depth(id NodeID) int {
	d := 0
	for t.Valid(id) && t.parent[id] != NoNode {
		id = t.parent[id]
		d++
	}
	return d
}

// Hops returns the tree distance between two nodes.
func (t *Topology) Hops(a, b NodeID) (int, error) {
	if !t.Valid(a) || !t.Valid(b) {
		return 0, fmt.Errorf("netsim: invalid nodes %d, %d", a, b)
	}
	da, db := t.Depth(a), t.Depth(b)
	hops := 0
	for da > db {
		a = t.parent[a]
		da--
		hops++
	}
	for db > da {
		b = t.parent[b]
		db--
		hops++
	}
	for a != b {
		a = t.parent[a]
		b = t.parent[b]
		hops += 2
	}
	return hops, nil
}

// BFSOrder returns all node IDs in breadth-first order from the root —
// the deterministic processing order protocols use for phase-end sweeps.
func (t *Topology) BFSOrder() []NodeID {
	order := make([]NodeID, 0, t.Len())
	queue := []NodeID{t.Root()}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		queue = append(queue, t.children[id]...)
	}
	return order
}

// CompleteBinaryTree builds a topology of n nodes where node i has
// children 2i+1 and 2i+2 — the simulation topology of §5.3 ("a complete
// binary tree with the source at the root").
func CompleteBinaryTree(n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("netsim: need at least 1 node, got %d", n)
	}
	t := NewTopology()
	for i := 1; i < n; i++ {
		if _, err := t.AddChild(NodeID((i - 1) / 2)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Chain builds a linear topology root=0 — 1 — 2 — ... — (n-1), used by
// single-client (n=2) and deep-path experiments.
func Chain(n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("netsim: need at least 1 node, got %d", n)
	}
	t := NewTopology()
	prev := t.Root()
	for i := 1; i < n; i++ {
		id, err := t.AddChild(prev)
		if err != nil {
			return nil, err
		}
		prev = id
	}
	return t, nil
}

// Counter accumulates message costs by kind. A message traversing h tree
// hops costs h, so flat client-server protocols running over a deep tree
// pay for the path while hop-by-hop protocols pay per edge.
type Counter struct {
	byKind map[string]uint64
	total  uint64
}

// NewCounter creates an empty counter.
func NewCounter() *Counter {
	return &Counter{byKind: make(map[string]uint64)}
}

// Count records a message of the given kind crossing hops edges.
func (c *Counter) Count(kind string, hops int) {
	if hops <= 0 {
		return
	}
	c.byKind[kind] += uint64(hops)
	c.total += uint64(hops)
}

// Total returns the total message cost recorded.
func (c *Counter) Total() uint64 { return c.total }

// Kind returns the cost recorded for one message kind.
func (c *Counter) Kind(kind string) uint64 { return c.byKind[kind] }

// Kinds returns the recorded kinds in sorted order.
func (c *Counter) Kinds() []string {
	out := make([]string, 0, len(c.byKind))
	for k := range c.byKind {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Reset zeroes all counts.
func (c *Counter) Reset() {
	c.byKind = make(map[string]uint64)
	c.total = 0
}

// RandomTree builds a topology of n nodes where each new node attaches
// to a uniformly random existing node — the preferential-attachment-free
// random recursive tree, useful for robustness checks beyond the
// regular shapes of the paper's experiments.
func RandomTree(seed int64, n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("netsim: need at least 1 node, got %d", n)
	}
	t := NewTopology()
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i < n; i++ {
		if _, err := t.AddChild(NodeID(rng.Intn(t.Len()))); err != nil {
			return nil, err
		}
	}
	return t, nil
}
