package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/multi"
	"github.com/streamsum/swat/internal/wire"
)

// testGeometry is the shared tree geometry of every test fleet.
var testGeometry = core.Options{WindowSize: 32, Coefficients: 4, MinLevel: 2}

// testNode is one running swatd-equivalent: a v2 server over a monitor.
type testNode struct {
	addr string
	mon  *multi.Monitor
	srv  *wire.Server
	done chan error
	t    *testing.T
}

func (n *testNode) stop() {
	if n.srv == nil {
		return
	}
	if err := n.srv.Close(); err != nil {
		n.t.Errorf("close %s: %v", n.addr, err)
	}
	if err := <-n.done; err != nil {
		n.t.Errorf("serve %s: %v", n.addr, err)
	}
	n.srv = nil
	if n.mon != nil {
		if err := n.mon.Close(); err != nil {
			n.t.Errorf("monitor %s: %v", n.addr, err)
		}
		n.mon = nil
	}
}

// startTestNode starts a stream-capable node on a loopback port.
func startTestNode(t *testing.T) *testNode {
	t.Helper()
	return startTestNodeAt(t, "")
}

// startTestNodeAt starts a node whose streams are durable under dataDir
// (swatd -data-dir), or in memory when dataDir is empty.
func startTestNodeAt(t *testing.T, dataDir string) *testNode {
	t.Helper()
	srv, err := wire.NewServer(testGeometry)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	mon, err := multi.New(multi.Options{
		WindowSize:   testGeometry.WindowSize,
		Coefficients: testGeometry.Coefficients,
		MinLevel:     testGeometry.MinLevel,
		DataDir:      dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseMonitor(mon); err != nil {
		t.Fatal(err)
	}
	n := &testNode{srv: srv, mon: mon, done: make(chan error, 1), t: t}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = addr.String()
	go func() { n.done <- srv.Serve() }()
	t.Cleanup(n.stop)
	return n
}

// testConfig builds a client config over the given nodes with the
// shared geometry and a declared [0,100] range.
func testConfig(fleet []*testNode) Config {
	cfg := Config{
		WindowSize:   testGeometry.WindowSize,
		Coefficients: testGeometry.Coefficients,
		MinLevel:     testGeometry.MinLevel,
		ValueLo:      0,
		ValueHi:      100,
		Seed:         7,
		Timeout:      2 * time.Second,
	}
	for _, n := range fleet {
		cfg.Nodes = append(cfg.Nodes, n.addr)
	}
	return cfg
}

// spreadStreams picks stream names until every node owns at least one,
// returning the names. Placement is pseudo-random; a handful of
// candidates always covers a small fleet.
func spreadStreams(t *testing.T, c *Client, want int) []string {
	t.Helper()
	owned := make(map[string]bool)
	var names []string
	for i := 0; len(names) < want || len(owned) < c.Ring().Len(); i++ {
		if i > 1000 {
			t.Fatal("placement never covered every node")
		}
		name := fmt.Sprintf("stream-%d", i)
		names = append(names, name)
		owned[c.Owner(name)] = true
	}
	return names
}

// feedRows ships count rows (one value per stream per row) and waits
// until every live owner applied them. Returns the per-row values,
// rows[i][j] = stream j's i-th value. The values are integers, so sums
// are exact in any order.
func feedRows(t *testing.T, c *Client, nodes map[string]*testNode, streams []string, count int) [][]float64 {
	t.Helper()
	rows := make([][]float64, count)
	for i := range rows {
		rows[i] = make([]float64, len(streams))
		for j := range rows[i] {
			rows[i][j] = float64((i*31 + j*17) % 101) // in [0,100]
		}
	}
	shipRows(t, c, nodes, streams, rows)
	return rows
}

// shipRows ships the given rows and waits until every live owner
// applied everything the client has sent.
func shipRows(t *testing.T, c *Client, nodes map[string]*testNode, streams []string, rows [][]float64) {
	t.Helper()
	// Ship column-wise in a few batches to exercise batching.
	batches := make([]Batch, len(streams))
	for j, s := range streams {
		col := make([]float64, len(rows))
		for i := range col {
			col[i] = rows[i][j]
		}
		batches[j] = Batch{Stream: s, Values: col}
	}
	if err := c.ObserveBatch(batches); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sync bounds delivery, not application; poll the monitors.
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range streams {
		n := nodes[c.Owner(s)]
		if n == nil || n.mon == nil {
			continue // not a local node, or stopped
		}
		for {
			tr, err := n.mon.Tree(s)
			if err == nil && tr.Arrivals() == c.Sent(s) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("stream %q stuck (err=%v)", s, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// rowSums returns the per-row sum across streams.
func rowSums(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		for _, v := range r {
			out[i] += v
		}
	}
	return out
}

// TestClientEndToEnd drives the full pipeline over real sockets: ring
// placement, pipelined batched ingest, per-stream bounded points, and a
// cluster-wide roll-up that answers exactly like one tree fed the
// summed stream.
func TestClientEndToEnd(t *testing.T) {
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

	if got := c.Streams(); len(got) != len(streams) {
		t.Fatalf("client registry has %d streams, want %d", len(got), len(streams))
	}
	for _, s := range streams {
		if c.Sent(s) != count {
			t.Errorf("sent(%q) = %d, want %d", s, c.Sent(s), count)
		}
	}

	// Per-stream points answer from the owner's tree.
	for _, s := range streams {
		ans := c.Point(s, 0)
		if ans.Err != nil {
			t.Fatalf("point %q: %v", s, ans.Err)
		}
		if ans.Degraded || ans.Bound != 0 {
			t.Errorf("point %q degraded on a healthy fleet: %+v", s, ans)
		}
		if ans.Arrivals != count {
			t.Errorf("point %q arrivals = %d, want %d", s, ans.Arrivals, count)
		}
		tr, err := nodes[c.Owner(s)].mon.Tree(s)
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := tr.BoundedPoint(0)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Value != v {
			t.Errorf("point %q = %v, owner tree says %v", s, ans.Value, v)
		}
	}

	// PointAll covers every stream, sorted, no degradation.
	all, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(streams) {
		t.Fatalf("PointAll returned %d answers, want %d", len(all), len(streams))
	}
	for i, ans := range all {
		if ans.Err != nil || ans.Degraded {
			t.Errorf("PointAll[%d] (%q) unhealthy: %+v", i, ans.Stream, ans)
		}
		if i > 0 && all[i-1].Stream >= ans.Stream {
			t.Errorf("PointAll order broken: %q before %q", all[i-1].Stream, ans.Stream)
		}
	}

	// The roll-up answers like one tree fed the per-row sums — the
	// wavelet transform is linear, and every summary is aligned, so the
	// fold is exact (zero bound).
	ru, err := c.RollUp()
	if err != nil {
		t.Fatal(err)
	}
	if len(ru.Missing) != 0 {
		t.Fatalf("healthy roll-up missing %v", ru.Missing)
	}
	if ru.Streams != len(streams) {
		t.Errorf("roll-up folded %d streams, want %d", ru.Streams, len(streams))
	}
	if ru.NodesOK != ru.NodesTotal {
		t.Errorf("roll-up nodes %d/%d, want all", ru.NodesOK, ru.NodesTotal)
	}
	twin, err := core.New(testGeometry)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rowSums(rows) {
		twin.Update(v)
	}
	for age := 0; age < 8; age++ {
		gv, gb, err := ru.Tree.BoundedPoint(age)
		if err != nil {
			t.Fatal(err)
		}
		tv, _, err := twin.BoundedPoint(age)
		if err != nil {
			t.Fatal(err)
		}
		if gb != 0 {
			t.Errorf("age %d: healthy roll-up bound = %v, want 0", age, gb)
		}
		if gv != tv {
			t.Errorf("age %d: roll-up answers %v, twin fed summed rows answers %v", age, gv, tv)
		}
	}

	// Connection churn stayed sane: one held feed + pooled readers.
	for _, ps := range c.Pools() {
		if ps.Retries != 0 {
			t.Errorf("node %s: %d retries on a healthy run", ps.Node, ps.Retries)
		}
	}
}

// TestClientPartialFailure stops one node: point queries degrade to the
// declared midpoint with half-width bounds, the roll-up folds widened
// stand-ins for the dead node's streams, and both still answer within
// their (now non-zero) bounds of the fault-free twin.
func TestClientPartialFailure(t *testing.T) {
	nodes := map[string]*testNode{}
	var fleet []*testNode
	for i := 0; i < 3; i++ {
		n := startTestNode(t)
		nodes[n.addr] = n
		fleet = append(fleet, n)
	}
	cfg := testConfig(fleet)
	cfg.Timeout = 500 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	streams := spreadStreams(t, c, 8)
	const count = 64
	rows := feedRows(t, c, nodes, streams, count)

	victim := nodes[c.Owner(streams[0])]
	var victimStreams []string
	for _, s := range streams {
		if c.Owner(s) == victim.addr {
			victimStreams = append(victimStreams, s)
		}
	}
	sort.Strings(victimStreams) // RollUp.Missing is sorted; "stream-10" < "stream-2"
	victim.stop()

	// Points on dead-owner streams degrade honestly.
	ans := c.Point(streams[0], 0)
	if ans.Err != nil {
		t.Fatalf("point on dead owner errored instead of degrading: %v", ans.Err)
	}
	if !ans.Degraded || ans.Value != 50 || ans.Bound != 50 {
		t.Errorf("degraded point = %+v, want midpoint 50 ± 50", ans)
	}

	all, err := c.PointAll(0)
	if err != nil {
		t.Fatalf("PointAll below-quorum error with 2 of 3 owners alive: %v", err)
	}
	for _, a := range all {
		dead := c.Owner(a.Stream) == victim.addr
		if dead != a.Degraded {
			t.Errorf("stream %q: degraded=%v, owner dead=%v", a.Stream, a.Degraded, dead)
		}
	}

	ru, err := c.RollUp()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ru.Missing, ",") != strings.Join(victimStreams, ",") {
		t.Errorf("roll-up missing %v, want the victim's %v", ru.Missing, victimStreams)
	}
	if ru.NodesOK != ru.NodesTotal-1 {
		t.Errorf("roll-up nodes %d/%d, want one short", ru.NodesOK, ru.NodesTotal)
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
	if gb <= 0 {
		t.Error("roll-up with stand-ins reports a zero bound")
	}
	if diff := gv - tv; diff > gb+1e-9 || diff < -gb-1e-9 {
		t.Errorf("roll-up answer %v strays %v from the twin's %v, beyond its bound %v", gv, diff, tv, gb)
	}

	// The failure shows up in pool stats as retries/discards.
	var churn uint64
	for _, ps := range c.Pools() {
		churn += ps.Retries + ps.Discards
	}
	if churn == 0 {
		t.Error("dead node left no trace in pool stats")
	}
}

// TestClientQuorum raises the quorum to the full fleet: with any node
// dead, gathers refuse rather than answer.
func TestClientQuorum(t *testing.T) {
	nodes := map[string]*testNode{}
	var fleet []*testNode
	for i := 0; i < 3; i++ {
		n := startTestNode(t)
		nodes[n.addr] = n
		fleet = append(fleet, n)
	}
	cfg := testConfig(fleet)
	cfg.Timeout = 500 * time.Millisecond
	cfg.Quorum = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	streams := spreadStreams(t, c, 6)
	feedRows(t, c, nodes, streams, 16)
	nodes[c.Owner(streams[0])].stop()

	if _, err := c.RollUp(); err == nil {
		t.Error("roll-up met a full-fleet quorum with a node down")
	}
	if _, err := c.PointAll(0); err == nil {
		t.Error("PointAll met a full-fleet quorum with a node down")
	}
}

// TestClientValidation pins constructor errors.
func TestClientValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := New(Config{Nodes: []string{"a:1"}, WindowSize: 3}); err == nil {
		t.Error("bad geometry accepted")
	}
	c, err := New(Config{Nodes: []string{"127.0.0.1:1"}, WindowSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ObserveStream("", []float64{1}); err == nil {
		t.Error("empty stream name accepted")
	}
	if err := c.ObserveStream("s", nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
}
