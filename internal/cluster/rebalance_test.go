package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/wire"
)

// movers generates extra stream names that oldRing and newRing place
// differently, with the new owner being addr — guaranteed migration
// traffic regardless of how the pseudo-random placement falls.
func movers(t *testing.T, oldRing, newRing *Ring, addr string, want int) []string {
	t.Helper()
	var names []string
	for i := 0; len(names) < want; i++ {
		if i > 100000 {
			t.Fatal("placement never moved a stream to the new node")
		}
		name := fmt.Sprintf("mover-%d", i)
		if newRing.Owner(name) == addr && oldRing.Owner(name) != addr {
			names = append(names, name)
		}
	}
	return names
}

// serverEpoch reads a node's ring epoch over a throwaway connection.
func serverEpoch(t *testing.T, addr string) uint64 {
	t.Helper()
	bc, err := wire.DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	e, err := bc.RingEpoch()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRebalanceAddNode grows a live fleet by one node: summaries hand
// off to the newcomer byte-identically, every node and the client end
// at the new epoch, post-migration answers are exactly the
// pre-migration ones, and a client still routing by the old ring is
// refused instead of double-counting.
func TestRebalanceAddNode(t *testing.T) {
	nodes := map[string]*testNode{}
	var fleet []*testNode
	for i := 0; i < 2; i++ {
		n := startTestNode(t)
		nodes[n.addr] = n
		fleet = append(fleet, n)
	}
	c, err := New(testConfig(fleet))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A stale twin of the client, built before the fleet grows.
	stale, err := New(testConfig(fleet))
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()

	newcomer := startTestNode(t)
	nodes[newcomer.addr] = newcomer
	newRing, err := c.Ring().WithNode(newcomer.addr)
	if err != nil {
		t.Fatal(err)
	}

	// Feed a full window everywhere, including streams guaranteed to
	// move to the newcomer.
	streams := spreadStreams(t, c, 6)
	streams = append(streams, movers(t, c.Ring(), newRing, newcomer.addr, 2)...)
	const count = 64
	feedRows(t, c, nodes, streams, count)
	before, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}

	report, err := c.Rebalance(newRing, RebalanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.FromEpoch != 1 || report.ToEpoch != 2 {
		t.Fatalf("epochs %d -> %d, want 1 -> 2", report.FromEpoch, report.ToEpoch)
	}
	if len(report.Moves) == 0 {
		t.Fatal("no streams moved despite guaranteed movers")
	}
	if len(report.Unfenced) != 0 {
		t.Fatalf("healthy fleet left unfenced nodes: %v", report.Unfenced)
	}
	if got := c.Ring().Epoch(); got != 2 {
		t.Fatalf("client ring epoch = %d, want 2", got)
	}
	for addr := range nodes {
		if e := serverEpoch(t, addr); e != 2 {
			t.Fatalf("node %s at epoch %d after cutover, want 2", addr, e)
		}
	}

	// Handoff correctness: each moved stream's state on its new owner
	// is byte-identical to the old owner's, with no double count.
	for _, mv := range report.Moves {
		if mv.Cold {
			t.Fatalf("move %+v went cold on a healthy fleet", mv)
		}
		src, dst := nodes[mv.From].mon, nodes[mv.To].mon
		srcTree, err := src.Tree(mv.Stream)
		if err != nil {
			t.Fatal(err)
		}
		dstTree, err := dst.Tree(mv.Stream)
		if err != nil {
			t.Fatalf("moved stream %q missing on new owner: %v", mv.Stream, err)
		}
		if !bytes.Equal(srcTree.AppendSummary(nil), dstTree.AppendSummary(nil)) {
			t.Fatalf("moved stream %q not byte-identical across the handoff", mv.Stream)
		}
		if got := dstTree.Arrivals(); got != count {
			t.Fatalf("moved stream %q has %d arrivals on new owner, want %d", mv.Stream, got, count)
		}
	}

	// Post-migration reads route by the new ring and answer exactly as
	// before the reshard.
	after, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i].Err != nil || after[i].Err != nil {
			t.Fatalf("answer error: before=%v after=%v", before[i].Err, after[i].Err)
		}
		if before[i].Value != after[i].Value || after[i].Bound != 0 {
			t.Fatalf("stream %q answered %v±%v after migration, want exactly %v",
				after[i].Stream, after[i].Value, after[i].Bound, before[i].Value)
		}
	}

	// The stale twin still routes by epoch 1: its writes to a moved
	// stream's old owner are refused (never silently double-counted)
	// and its reads are told the placement is stale.
	mv := report.Moves[0]
	oldTree, err := nodes[mv.From].mon.Tree(mv.Stream)
	if err != nil {
		t.Fatal(err)
	}
	arrivalsBefore := oldTree.Arrivals()
	if err := stale.ObserveStream(mv.Stream, []float64{50, 50, 50}); err != nil {
		t.Fatal(err) // one-way: the refusal surfaces on the next sync
	}
	if err := stale.Sync(); err == nil {
		t.Fatal("stale client's sync succeeded over a refused connection")
	}
	time.Sleep(20 * time.Millisecond)
	if got := oldTree.Arrivals(); got != arrivalsBefore {
		t.Fatalf("stale write applied on old owner: arrivals %d -> %d", arrivalsBefore, got)
	}
	if ans := stale.Point(mv.Stream, 0); ans.Err == nil || !strings.Contains(ans.Err.Error(), "epoch") {
		t.Fatalf("stale read: %+v, want an epoch refusal", ans)
	}

	// Stats reflect the settled state.
	st := c.Stats()
	if st.Epoch != 2 || st.Migrating || len(st.Nodes) != 3 || len(st.Pools) != 3 {
		t.Fatalf("stats after migration: %+v", st)
	}
}

// TestRebalanceRemoveNode drains a member out of the fleet: its
// streams hand off, the flip retires its pool, and answers stay exact
// even after the node is gone.
func TestRebalanceRemoveNode(t *testing.T) {
	nodes := map[string]*testNode{}
	var fleet []*testNode
	for i := 0; i < 3; i++ {
		n := startTestNode(t)
		nodes[n.addr] = n
		fleet = append(fleet, n)
	}
	c, err := New(testConfig(fleet))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	streams := spreadStreams(t, c, 8)
	const count = 64
	rows := feedRows(t, c, nodes, streams, count)
	before, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}

	victim := fleet[0]
	newRing, err := c.Ring().WithoutNode(victim.addr)
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Rebalance(newRing, RebalanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range report.Moves {
		if mv.From != victim.addr {
			t.Fatalf("removal moved %q from surviving node %s", mv.Stream, mv.From)
		}
	}
	st := c.Stats()
	if st.Epoch != 2 || len(st.Nodes) != 2 {
		t.Fatalf("stats after removal: %+v", st)
	}
	for _, addr := range st.Nodes {
		if addr == victim.addr {
			t.Fatal("victim still in the placement")
		}
	}

	// The victim can die now; nothing routes to it.
	victim.stop()
	after, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if after[i].Err != nil || after[i].Degraded {
			t.Fatalf("stream %q degraded after removal: %+v", after[i].Stream, after[i])
		}
		if before[i].Value != after[i].Value || after[i].Bound != 0 {
			t.Fatalf("stream %q answered %v±%v, want exactly %v",
				after[i].Stream, after[i].Value, after[i].Bound, before[i].Value)
		}
	}
	// And the roll-up still answers like one tree fed the summed rows.
	ru, err := c.RollUp()
	if err != nil {
		t.Fatal(err)
	}
	if len(ru.Missing) != 0 {
		t.Fatalf("post-removal roll-up missing %v", ru.Missing)
	}
	twin, err := core.New(testGeometry)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rowSums(rows) {
		twin.Update(v)
	}
	gv, gb, err := ru.Tree.BoundedPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	tv, _, err := twin.BoundedPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if gb != 0 || gv != tv {
		t.Fatalf("roll-up answers %v±%v, twin fed summed rows answers %v exactly", gv, gb, tv)
	}
}

// TestRebalanceDeadNewOwnerFailsFast pins the abort path: a target
// ring whose newcomer is unreachable fails the migration within the
// configured budget — not the pools' full retry schedule — and leaves
// the old placement fully authoritative with nothing flipped.
func TestRebalanceDeadNewOwnerFailsFast(t *testing.T) {
	nodes := map[string]*testNode{}
	var fleet []*testNode
	for i := 0; i < 2; i++ {
		n := startTestNode(t)
		nodes[n.addr] = n
		fleet = append(fleet, n)
	}
	c, err := New(testConfig(fleet))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A dead address: bind a port, then free it.
	ghost := startTestNode(t)
	ghostAddr := ghost.addr
	ghost.stop()

	newRing, err := c.Ring().WithNode(ghostAddr)
	if err != nil {
		t.Fatal(err)
	}
	streams := spreadStreams(t, c, 4)
	streams = append(streams, movers(t, c.Ring(), newRing, ghostAddr, 1)...)
	const count = 64
	feedRows(t, c, nodes, streams, count)

	start := time.Now()
	if _, err := c.Rebalance(newRing, RebalanceOptions{Timeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("migration to a dead new owner succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead new owner stalled the migration for %v", elapsed)
	}
	// Nothing flipped: epoch, placement, and answers are untouched.
	if got := c.Ring().Epoch(); got != 1 {
		t.Fatalf("client epoch %d after aborted migration, want 1", got)
	}
	// Ordinary traffic already carried epoch 1 to the servers; the
	// point is that nobody was fenced to the aborted target epoch.
	for _, n := range fleet {
		if e := serverEpoch(t, n.addr); e >= newRing.Epoch() {
			t.Fatalf("node %s fenced to %d by an aborted migration", n.addr, e)
		}
	}
	answers, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if a.Err != nil || a.Degraded || a.Bound != 0 {
			t.Fatalf("answer degraded after aborted migration: %+v", a)
		}
	}
}

// TestRebalanceValidation pins the lineage checks: nil rings, foreign
// geometry, and non-advancing epochs are refused before anything
// moves.
func TestRebalanceValidation(t *testing.T) {
	n := startTestNode(t)
	c, err := New(testConfig([]*testNode{n}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Rebalance(nil, RebalanceOptions{}); err == nil {
		t.Error("nil target ring accepted")
	}
	foreign, err := NewRingAt(c.Ring().Seed()+1, c.Ring().VNodes(), []string{n.addr, "x:1"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rebalance(foreign, RebalanceOptions{}); err == nil {
		t.Error("foreign-seed ring accepted")
	}
	same, err := NewRingAt(c.Ring().Seed(), c.Ring().VNodes(), []string{n.addr, "x:1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rebalance(same, RebalanceOptions{}); err == nil {
		t.Error("non-advancing epoch accepted")
	}
}
