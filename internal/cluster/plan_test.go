package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// TestGatherPlanReused pins the plan cache: a second gather over an
// unchanged registry and placement runs on the very plan the first one
// built — PointAll and RollUp alike — and a new registration replaces
// it with one that places the new stream.
func TestGatherPlanReused(t *testing.T) {
	cfg, nodes := fleetOf(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 12)
	feedRows(t, c, nodes, streams, 64)

	if _, err := c.PointAll(0); err != nil {
		t.Fatal(err)
	}
	p := c.pl.Load()
	g := p.plan.Load()
	if g == nil || len(g.streams) != len(streams) {
		t.Fatalf("PointAll left plan %+v for %d streams", g, len(streams))
	}
	if _, err := c.RollUp(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PointAll(1); err != nil {
		t.Fatal(err)
	}
	if c.pl.Load() != p || p.plan.Load() != g || c.plan(p) != g {
		t.Fatal("a gather over an unchanged registry and placement rebuilt the plan")
	}

	c.recordSent("late", 1)
	fresh := c.plan(p)
	if fresh == g || len(fresh.streams) != len(streams)+1 {
		t.Fatalf("registration kept the old plan (%d streams)", len(fresh.streams))
	}
	placed := false
	for _, o := range fresh.owners {
		for _, name := range o.names {
			if name == "late" {
				placed = o.n.addr == c.Owner("late")
			}
		}
	}
	if !placed {
		t.Error("the new plan does not place the new stream on its owner")
	}
}

// TestGatherSeesNewStream registers a stream between two gathers: the
// next PointAll answers it from its owner and the next RollUp folds it,
// byte-identical to the client-side fold.
func TestGatherSeesNewStream(t *testing.T) {
	cfg, nodes := fleetOf(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 9)
	feedRows(t, c, nodes, streams, 64)
	if _, err := c.PointAll(0); err != nil {
		t.Fatal(err)
	}
	ru, err := c.RollUp()
	if err != nil {
		t.Fatal(err)
	}
	if ru.Streams != len(streams) {
		t.Fatalf("first roll-up folded %d of %d streams", ru.Streams, len(streams))
	}

	streams = append(streams, "added")
	feedRows(t, c, nodes, streams[len(streams)-1:], 64)
	answers, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(streams) {
		t.Fatalf("PointAll after a registration answered %d of %d streams", len(answers), len(streams))
	}
	for _, a := range answers {
		if a.Stream == "added" {
			checkExact(t, a, nodes[c.Owner("added")], 0)
		}
	}
	if ru, err = c.RollUp(); err != nil {
		t.Fatal(err)
	}
	if ru.Streams != len(streams) || len(ru.Missing) != 0 {
		t.Errorf("roll-up after a registration folded %d of %d streams, missing %v", ru.Streams, len(streams), ru.Missing)
	}
	if !bytes.Equal(ru.Tree.AppendSummary(nil), wantRollUp(t, c, nodes)) {
		t.Error("roll-up after a registration differs from the client-side fold")
	}
}

// TestGatherAfterRebalance gathers, reshards onto a new node, and
// gathers again: every answer names its owner under the new ring, the
// movers the newcomer, and the roll-up counts the owners under the new
// ring.
func TestGatherAfterRebalance(t *testing.T) {
	cfg, nodes := fleetOf(t, 2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	newcomer := startTestNode(t)
	nodes[newcomer.addr] = newcomer
	newRing, err := c.Ring().WithNode(newcomer.addr)
	if err != nil {
		t.Fatal(err)
	}
	streams := spreadStreams(t, c, 6)
	streams = append(streams, movers(t, c.Ring(), newRing, newcomer.addr, 2)...)
	feedRows(t, c, nodes, streams, 64)
	if _, err := c.PointAll(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RollUp(); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Rebalance(newRing, RebalanceOptions{}); err != nil {
		t.Fatal(err)
	}
	answers, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, a := range answers {
		if a.Err != nil || a.Node != newRing.Owner(a.Stream) {
			t.Errorf("%s answered by %q (err %v), new owner %s", a.Stream, a.Node, a.Err, newRing.Owner(a.Stream))
		}
		if a.Node == newcomer.addr {
			moved++
		}
	}
	if moved < 2 {
		t.Errorf("%d answers came from the newcomer, want at least the 2 movers", moved)
	}
	ru, err := c.RollUp()
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]bool{}
	for _, s := range streams {
		owners[newRing.Owner(s)] = true
	}
	if ru.NodesTotal != len(owners) || ru.NodesOK != len(owners) || ru.Streams != len(streams) {
		t.Errorf("roll-up after the reshard: %d of %d owners, want %d; %d streams", ru.NodesOK, ru.NodesTotal, len(owners), ru.Streams)
	}
	if !bytes.Equal(ru.Tree.AppendSummary(nil), wantRollUp(t, c, nodes)) {
		t.Error("roll-up after the reshard differs from the client-side fold")
	}
}

// TestGatherDuringRegistration gathers in a loop while ObserveBatch
// keeps registering streams (run under -race): every gather answers in
// sorted order and sees no fewer streams than the one before, and once
// ingest is done and applied, both gathers cover every stream.
func TestGatherDuringRegistration(t *testing.T) {
	cfg, nodes := fleetOf(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 6)
	feedRows(t, c, nodes, streams, 64)

	var added []string
	for i := 0; i < 40; i++ {
		added = append(added, fmt.Sprintf("new-%02d", i))
	}
	// Each registration starts as a gather round ends, so it overlaps
	// the next round.
	tick, finished, stop := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer close(stop)
	go func() {
		defer close(finished)
		vals := make([]float64, 64)
		for _, s := range added {
			select {
			case <-tick:
			case <-stop:
				return
			}
			if err := c.ObserveBatch([]Batch{{Stream: s, Values: vals}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	seen := 0
	for running := true; running; {
		answers, err := c.PointAll(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) < seen || !sort.SliceIsSorted(answers, func(i, j int) bool { return answers[i].Stream < answers[j].Stream }) {
			t.Fatalf("gather of %d answers after one of %d, or out of order", len(answers), seen)
		}
		seen = len(answers)
		if _, err := c.RollUp(); err != nil {
			t.Fatal(err)
		}
		select {
		case tick <- struct{}{}:
		case <-finished:
			running = false
		}
	}

	all := append(append([]string(nil), streams...), added...)
	shipRows(t, c, nodes, all, nil)
	answers, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if a.Err != nil || a.Node != c.Owner(a.Stream) {
			t.Errorf("%s: node %q, err %v", a.Stream, a.Node, a.Err)
		}
	}
	ru, err := c.RollUp()
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(all) || ru.Streams != len(all) || len(ru.Missing) != 0 {
		t.Errorf("after ingest: %d answers, roll-up of %d streams (missing %v), want %d", len(answers), ru.Streams, ru.Missing, len(all))
	}
}
