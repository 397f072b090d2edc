package netsim

import (
	"testing"
	"testing/quick"
)

func TestNewTopology(t *testing.T) {
	top := NewTopology()
	if top.Len() != 1 || top.Root() != 0 {
		t.Fatal("fresh topology wrong")
	}
	if top.Parent(0) != NoNode {
		t.Error("root parent should be NoNode")
	}
	if !top.IsLeaf(0) {
		t.Error("lone root should be a leaf")
	}
	if top.Valid(1) || top.Valid(-1) {
		t.Error("Valid accepted unknown node")
	}
}

func TestAddChild(t *testing.T) {
	top := NewTopology()
	c1, err := top.AddChild(0)
	if err != nil || c1 != 1 {
		t.Fatalf("AddChild = %d, %v", c1, err)
	}
	c2, _ := top.AddChild(0)
	g, _ := top.AddChild(c1)
	if top.Parent(g) != c1 || top.Parent(c1) != 0 {
		t.Error("parents wrong")
	}
	// Children are visited in attachment order.
	if order := top.BFSOrder(); len(order) != 4 || order[1] != c1 || order[2] != c2 || order[3] != g {
		t.Errorf("BFSOrder = %v", order)
	}
	if top.IsLeaf(c1) || !top.IsLeaf(g) {
		t.Error("leaf detection wrong")
	}
	if _, err := top.AddChild(99); err == nil {
		t.Error("accepted invalid parent")
	}
}

func TestDepthAndHops(t *testing.T) {
	top, err := CompleteBinaryTree(7)
	if err != nil {
		t.Fatal(err)
	}
	if top.Depth(0) != 0 || top.Depth(1) != 1 || top.Depth(3) != 2 || top.Depth(6) != 2 {
		t.Error("depths wrong")
	}
	cases := []struct {
		a, b NodeID
		want int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 2}, {3, 4, 2}, {3, 6, 4}, {1, 2, 2},
	}
	for _, c := range cases {
		got, err := top.Hops(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Hops(%d,%d) = %d (%v), want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := top.Hops(0, 99); err == nil {
		t.Error("Hops accepted invalid node")
	}
}

func TestBFSOrder(t *testing.T) {
	top, _ := CompleteBinaryTree(7)
	order := top.BFSOrder()
	if len(order) != 7 {
		t.Fatalf("BFS length %d", len(order))
	}
	for i, id := range order {
		if NodeID(i) != id {
			t.Fatalf("BFS order = %v, want identity for complete binary tree", order)
		}
	}
}

func TestCompleteBinaryTreeValidation(t *testing.T) {
	if _, err := CompleteBinaryTree(0); err == nil {
		t.Error("accepted 0 nodes")
	}
	top, err := CompleteBinaryTree(1)
	if err != nil || top.Len() != 1 {
		t.Error("single-node tree failed")
	}
}

func TestChain(t *testing.T) {
	top, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	if top.Len() != 4 {
		t.Fatalf("Len = %d", top.Len())
	}
	for i := 1; i < 4; i++ {
		if top.Parent(NodeID(i)) != NodeID(i-1) {
			t.Fatalf("chain parent of %d = %d", i, top.Parent(NodeID(i)))
		}
	}
	h, _ := top.Hops(0, 3)
	if h != 3 {
		t.Errorf("Hops(0,3) = %d, want 3", h)
	}
	if _, err := Chain(0); err == nil {
		t.Error("accepted 0 nodes")
	}
}

// Property: hops is a metric on the tree — symmetric, zero iff equal,
// and consistent with depth along root paths.
func TestQuickHopsMetric(t *testing.T) {
	top, _ := CompleteBinaryTree(31)
	f := func(ai, bi uint8) bool {
		a := NodeID(int(ai) % 31)
		b := NodeID(int(bi) % 31)
		ab, err1 := top.Hops(a, b)
		ba, err2 := top.Hops(b, a)
		if err1 != nil || err2 != nil || ab != ba {
			return false
		}
		if (ab == 0) != (a == b) {
			return false
		}
		root, err := top.Hops(0, a)
		return err == nil && root == top.Depth(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	if c.Total() != 0 {
		t.Error("fresh counter nonzero")
	}
	c.Count("query", 1)
	c.Count("query", 2)
	c.Count("update", 1)
	c.Count("noop", 0)  // ignored
	c.Count("noop", -1) // ignored
	if c.Total() != 4 {
		t.Errorf("Total = %d, want 4", c.Total())
	}
	if c.Kind("query") != 3 || c.Kind("update") != 1 || c.Kind("noop") != 0 {
		t.Error("per-kind counts wrong")
	}
	kinds := c.Kinds()
	if len(kinds) != 2 || kinds[0] != "query" || kinds[1] != "update" {
		t.Errorf("Kinds = %v", kinds)
	}
	c.Reset()
	if c.Total() != 0 || c.Kind("query") != 0 {
		t.Error("Reset incomplete")
	}
}

func TestRandomTree(t *testing.T) {
	if _, err := RandomTree(1, 0); err == nil {
		t.Error("accepted 0 nodes")
	}
	top, err := RandomTree(7, 50)
	if err != nil {
		t.Fatal(err)
	}
	if top.Len() != 50 {
		t.Fatalf("Len = %d", top.Len())
	}
	// Every node except the root has a valid parent with a smaller ID.
	for i := 1; i < 50; i++ {
		p := top.Parent(NodeID(i))
		if p == NoNode || p >= NodeID(i) {
			t.Fatalf("node %d has parent %d", i, p)
		}
	}
	// BFS visits every node exactly once.
	seen := map[NodeID]bool{}
	for _, id := range top.BFSOrder() {
		if seen[id] {
			t.Fatalf("BFS visited %d twice", id)
		}
		seen[id] = true
	}
	if len(seen) != 50 {
		t.Fatalf("BFS visited %d nodes", len(seen))
	}
	// Determinism.
	top2, _ := RandomTree(7, 50)
	for i := 0; i < 50; i++ {
		if top.Parent(NodeID(i)) != top2.Parent(NodeID(i)) {
			t.Fatal("same-seed RandomTree diverged")
		}
	}
}
