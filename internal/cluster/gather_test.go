package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/stream"
	"github.com/streamsum/swat/internal/wire"
)

// frameProxy fronts one test node on its own loopback port. It forwards
// bytes both ways, parsing the client-to-server direction into v2
// frames: it counts request frames (each connection's hello excluded)
// and, once dropping, reads the next request and closes the connection
// without forwarding it — a node that took the request and died.
// filter, when set, sees every request body before it is counted;
// returning false drops that request the same way. Each new connection
// dials the current upstream, so swapping it brings a restarted node
// back at the same address.
type frameProxy struct {
	addr     string
	upstream atomic.Pointer[string]
	requests atomic.Int64
	drop     atomic.Bool
	filter   atomic.Pointer[func(body []byte) bool]

	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func startFrameProxy(t *testing.T, upstream string) *frameProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &frameProxy{addr: ln.Addr().String()}
	p.upstream.Store(&upstream)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", *p.upstream.Load())
			if err != nil {
				down.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, down, up)
			p.mu.Unlock()
			p.wg.Add(2)
			go func() {
				defer p.wg.Done()
				defer down.Close()
				io.Copy(down, up)
			}()
			go func() {
				defer p.wg.Done()
				defer up.Close()
				defer down.Close()
				p.pump(down, up)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return p
}

// pump forwards one connection's client bytes frame by frame.
func (p *frameProxy) pump(down, up net.Conn) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(down, magic); err != nil {
		return
	}
	if _, err := up.Write(magic); err != nil {
		return
	}
	for hello := true; ; hello = false {
		hdr := make([]byte, codec.HeaderLen)
		if _, err := io.ReadFull(down, hdr); err != nil {
			return
		}
		n, _, err := codec.ParseHeader(hdr, wire.MaxFrame)
		if err != nil {
			return
		}
		frame := append(hdr, make([]byte, n)...)
		if _, err := io.ReadFull(down, frame[codec.HeaderLen:]); err != nil {
			return
		}
		if !hello {
			if p.drop.Load() {
				return
			}
			if f := p.filter.Load(); f != nil && !(*f)(frame[codec.HeaderLen:]) {
				return
			}
			p.requests.Add(1)
		}
		if _, err := up.Write(frame); err != nil {
			return
		}
	}
}

// proxiedFleet starts n nodes, each behind a frameProxy; the client
// config and the returned node map address the proxies.
func proxiedFleet(t *testing.T, n int) (Config, map[string]*testNode, map[string]*frameProxy) {
	t.Helper()
	nodes := map[string]*testNode{}
	proxies := map[string]*frameProxy{}
	var fronts []*testNode
	for i := 0; i < n; i++ {
		node := startTestNode(t)
		p := startFrameProxy(t, node.addr)
		nodes[p.addr] = node
		proxies[p.addr] = p
		fronts = append(fronts, &testNode{addr: p.addr})
	}
	cfg := testConfig(fronts)
	cfg.Timeout = 500 * time.Millisecond
	return cfg, nodes, proxies
}

// checkExact asserts a healthy answer: bound 0, value and arrivals
// exactly the owner tree's.
func checkExact(t *testing.T, a PointAnswer, node *testNode, age int) {
	t.Helper()
	tr, err := node.mon.Tree(a.Stream)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := tr.BoundedPoint(age)
	if err != nil {
		t.Fatal(err)
	}
	if a.Err != nil || a.Degraded || a.Bound != 0 || a.Value != v || a.Arrivals != tr.Arrivals() {
		t.Errorf("stream %q answered %+v, owner tree says %v at %d arrivals", a.Stream, a, v, tr.Arrivals())
	}
}

// TestPointAllOneFramePerNode pins the round-trip count: a gather whose
// per-node name sets fit one frame sends exactly one request frame to
// each owner, cold pool or warm.
func TestPointAllOneFramePerNode(t *testing.T) {
	cfg, nodes, proxies := proxiedFleet(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 24)
	feedRows(t, c, nodes, streams, 40)

	for pass := 0; pass < 2; pass++ {
		for _, p := range proxies {
			p.requests.Store(0)
		}
		all, err := c.PointAll(3)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range all {
			checkExact(t, a, nodes[a.Node], 3)
		}
		for addr, p := range proxies {
			if got := p.requests.Load(); got != 1 {
				t.Errorf("pass %d: node %s got %d request frames, want 1", pass, addr, got)
			}
		}
	}
}

// TestPointAllNodeDiesMidBatch kills one owner after it read the spoint
// and before it replied: exactly its streams degrade to midpoint ±
// half-range, every other answer stays exact, and the quorum error
// fires iff fewer than Quorum owners answered.
func TestPointAllNodeDiesMidBatch(t *testing.T) {
	cfg, nodes, proxies := proxiedFleet(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 12)
	feedRows(t, c, nodes, streams, 40)

	victim := c.Owner(streams[0])
	proxies[victim].drop.Store(true)
	for quorum, wantErr := range map[int]bool{2: false, 3: true} {
		c.cfg.Quorum = quorum
		all, err := c.PointAll(0)
		if (err != nil) != wantErr {
			t.Fatalf("quorum %d with 2 of 3 owners answering: err = %v, want error %v", quorum, err, wantErr)
		}
		for _, a := range all {
			if c.Owner(a.Stream) != victim {
				checkExact(t, a, nodes[a.Node], 0)
				continue
			}
			if !a.Degraded || a.Err != nil || a.Value != 50 || a.Bound != 50 || a.Node != "" {
				t.Errorf("stream %q on the dead owner answered %+v, want degraded 50 ± 50", a.Stream, a)
			}
		}
	}

	// A second death leaves one owner: below a quorum of two.
	for addr, p := range proxies {
		if addr != victim {
			p.drop.Store(true)
			break
		}
	}
	c.cfg.Quorum = 2
	if _, err := c.PointAll(0); err == nil {
		t.Error("PointAll met a quorum of 2 with one owner answering")
	}
}

// TestPointAllRefusalsStayPerStream mixes an unknown and a cold stream
// into healthy batches: only those entries carry Err, and their owners
// still count as answered under a full-fleet quorum.
func TestPointAllRefusalsStayPerStream(t *testing.T) {
	nodes := map[string]*testNode{}
	var fleet []*testNode
	for i := 0; i < 3; i++ {
		n := startTestNode(t)
		nodes[n.addr] = n
		fleet = append(fleet, n)
	}
	cfg := testConfig(fleet)
	cfg.Quorum = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 9)
	feedRows(t, c, nodes, streams, 40)
	// Too few values to warm a window, and values the fleet never saw.
	feedRows(t, c, nodes, []string{"cold"}, 3)
	c.recordSent("ghost", 5)

	all, err := c.PointAll(0)
	if err != nil {
		t.Fatalf("refusals cost quorum: %v", err)
	}
	var remote *wire.RemoteError
	for _, a := range all {
		switch a.Stream {
		case "cold", "ghost":
			if !errors.As(a.Err, &remote) || a.Degraded || a.Node != c.Owner(a.Stream) {
				t.Errorf("stream %q answered %+v, want its owner's refusal", a.Stream, a)
			}
		default:
			checkExact(t, a, nodes[a.Node], 0)
		}
	}
}

// TestPointAllStaleEpoch fences the whole fleet past the client's ring:
// every entry of every batch carries the epoch refusal.
func TestPointAllStaleEpoch(t *testing.T) {
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
	streams := spreadStreams(t, c, 9)
	feedRows(t, c, nodes, streams, 40)
	for _, n := range fleet {
		bc, err := wire.DialBinary(n.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bc.SetRingEpoch(c.Ring().Epoch() + 4); err != nil {
			t.Fatal(err)
		}
		if err := bc.Close(); err != nil {
			t.Fatal(err)
		}
	}

	all, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}
	var remote *wire.RemoteError
	for _, a := range all {
		if !errors.As(a.Err, &remote) || !strings.Contains(a.Err.Error(), "epoch") {
			t.Errorf("stream %q answered %+v, want an epoch refusal", a.Stream, a)
		}
	}
}

// TestPointAllSplitsLongBatches gives one node more long-named streams
// than one spoint frame can name: the request splits into consecutive
// frames and answers exactly as one-frame requests do.
func TestPointAllSplitsLongBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("registers over four thousand streams")
	}
	cfg, nodes, proxies := proxiedFleet(t, 1)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	perFrame := (wire.MaxFrame - 17) / (2 + 256) // spoint header, then u16-prefixed names
	streams := make([]string, perFrame+5)
	for i := range streams {
		streams[i] = fmt.Sprintf("%s-%09d", strings.Repeat("x", 246), i)
	}
	feedRows(t, c, nodes, streams, testGeometry.WindowSize)

	var p *frameProxy
	for _, p = range proxies {
		p.requests.Store(0)
	}
	all, err := c.PointAll(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.requests.Load(); got != 2 {
		t.Errorf("%d long names went out in %d frames, want 2", len(streams), got)
	}
	for _, a := range all {
		checkExact(t, a, nodes[a.Node], 1)
	}
	// Names sort in creation order, so all[i] answers streams[i].
	for _, i := range []int{0, perFrame - 1, perFrame, len(streams) - 1} {
		if one := c.Point(streams[i], 1); one != all[i] {
			t.Errorf("stream %d: one-frame answer %+v, split batch %+v", i, one, all[i])
		}
	}
}

// fleetOf starts n plain test nodes and returns a client config over
// them with the node map.
func fleetOf(t *testing.T, n int) (Config, map[string]*testNode) {
	t.Helper()
	nodes := map[string]*testNode{}
	var fleet []*testNode
	for i := 0; i < n; i++ {
		node := startTestNode(t)
		nodes[node.addr] = node
		fleet = append(fleet, node)
	}
	return testConfig(fleet), nodes
}

// wantRollUp folds the fleet's trees on the client in RollUp's
// documented order with plain MergeSummaries — per owner, its streams
// by name, a stream lagging the client's sent count advanced first;
// then the owners' partials by address — and returns the encoding
// RollUp must reproduce.
func wantRollUp(t *testing.T, c *Client, nodes map[string]*testNode) []byte {
	t.Helper()
	fold := func(acc, s *core.Summary) *core.Summary {
		t.Helper()
		if acc == nil {
			return s
		}
		out, err := core.MergeSummaries(acc, s, c.mopts)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var acc *core.Summary
	for _, addr := range c.Ring().Nodes() {
		var part *core.Summary
		for _, s := range streamsOn(c, addr, c.Streams()) {
			tr, err := nodes[addr].mon.Tree(s)
			if err != nil {
				t.Fatal(err)
			}
			sum := tr.Export()
			if sent := c.Sent(s); sum.Arrivals < sent {
				if sum, err = core.AdvanceSummary(sum, sent, c.mopts); err != nil {
					t.Fatal(err)
				}
			}
			part = fold(part, sum)
		}
		if part != nil {
			acc = fold(acc, part)
		}
	}
	tr, err := core.FromSummary(acc)
	if err != nil {
		t.Fatal(err)
	}
	return tr.AppendSummary(nil)
}

// checkCovers asserts the roll-up answers every age within its bound
// of a twin fed the per-row sums, and that the bound is not zero.
func checkCovers(t *testing.T, ru *RollUp, rows [][]float64) {
	t.Helper()
	twin, err := core.New(testGeometry)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rowSums(rows) {
		twin.Update(v)
	}
	for age := 0; age < testGeometry.WindowSize; age++ {
		gv, gb, err := ru.Tree.BoundedPoint(age)
		if err != nil {
			t.Fatal(err)
		}
		tv, _, err := twin.BoundedPoint(age)
		if err != nil {
			t.Fatal(err)
		}
		if gb <= 0 || math.Abs(gv-tv) > gb+1e-9 {
			t.Errorf("age %d: roll-up %v ± %v, twin %v", age, gv, gb, tv)
		}
	}
}

// streamsOn returns the given streams owned by addr, sorted.
func streamsOn(c *Client, addr string, streams []string) []string {
	var out []string
	for _, s := range streams {
		if c.Owner(s) == addr {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// TestRollUpOneFramePerNode pins the round-trip count: every owner gets
// exactly one sfold and answers with one summary, so a healthy roll-up
// decodes one summary per node, not one per stream — cold pool or warm.
func TestRollUpOneFramePerNode(t *testing.T) {
	cfg, nodes, proxies := proxiedFleet(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 24)
	feedRows(t, c, nodes, streams, 64)

	for pass := 0; pass < 2; pass++ {
		for _, p := range proxies {
			p.requests.Store(0)
		}
		ru, err := c.RollUp()
		if err != nil {
			t.Fatal(err)
		}
		if len(ru.Missing) != 0 || ru.Streams != len(streams) || ru.NodesOK != 3 || ru.NodesTotal != 3 {
			t.Errorf("pass %d: healthy roll-up %+v", pass, ru)
		}
		for addr, p := range proxies {
			if got := p.requests.Load(); got != 1 {
				t.Errorf("pass %d: node %s got %d request frames, want 1", pass, addr, got)
			}
		}
	}
}

// TestRollUpNodeDiesMidBatch kills one owner after it read the sfold
// and before it replied: exactly its streams become stand-ins, every
// bound still covers the fault-free twin, and the quorum error fires
// iff fewer than Quorum owners answered.
func TestRollUpNodeDiesMidBatch(t *testing.T) {
	cfg, nodes, proxies := proxiedFleet(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 12)
	rows := feedRows(t, c, nodes, streams, 64)

	victim := c.Owner(streams[0])
	proxies[victim].drop.Store(true)
	want := strings.Join(streamsOn(c, victim, streams), ",")
	for quorum, wantErr := range map[int]bool{2: false, 3: true} {
		c.cfg.Quorum = quorum
		ru, err := c.RollUp()
		if (err != nil) != wantErr {
			t.Fatalf("quorum %d with 2 of 3 owners answering: err = %v, want error %v", quorum, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got := strings.Join(ru.Missing, ","); got != want {
			t.Errorf("missing %v, want the dead owner's %v", got, want)
		}
		if ru.NodesOK != 2 || ru.Streams != len(streams) {
			t.Errorf("roll-up counted %d nodes and %d streams", ru.NodesOK, ru.Streams)
		}
		checkCovers(t, ru, rows)
	}

	// A second death leaves one owner: below a quorum of two.
	for addr, p := range proxies {
		if addr != victim {
			p.drop.Store(true)
			break
		}
	}
	c.cfg.Quorum = 2
	if _, err := c.RollUp(); err == nil {
		t.Error("RollUp met a quorum of 2 with one owner answering")
	}
}

// TestRollUpRefusalsBecomeStandIns mixes an unknown and a cold stream
// into healthy batches: both fold in as stand-ins, and their owners
// still count as answered under a full-fleet quorum.
func TestRollUpRefusalsBecomeStandIns(t *testing.T) {
	cfg, nodes := fleetOf(t, 3)
	cfg.Quorum = 3
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 9)
	feedRows(t, c, nodes, streams, 64)
	// Too few values to warm a window, and values the fleet never saw.
	feedRows(t, c, nodes, []string{"cold"}, 3)
	c.recordSent("ghost", 5)

	ru, err := c.RollUp()
	if err != nil {
		t.Fatalf("refusals cost quorum: %v", err)
	}
	if got := strings.Join(ru.Missing, ","); got != "cold,ghost" {
		t.Errorf("missing %v, want cold,ghost", got)
	}
	if ru.NodesOK != 3 || ru.Streams != len(streams)+2 {
		t.Errorf("roll-up counted %d nodes and %d streams", ru.NodesOK, ru.Streams)
	}
	if _, bound, err := ru.Tree.BoundedPoint(0); err != nil || bound <= 0 {
		t.Errorf("roll-up with stand-ins answers bound %v (%v)", bound, err)
	}
}

// TestRollUpStaleEpoch fences one owner past the client's ring: its
// whole batch is refused with one error frame, so all of its streams
// become stand-ins while it still counts as answered.
func TestRollUpStaleEpoch(t *testing.T) {
	cfg, nodes := fleetOf(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 9)
	rows := feedRows(t, c, nodes, streams, 64)
	fenced := c.Owner(streams[0])
	bc, err := wire.DialBinary(fenced)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.SetRingEpoch(c.Ring().Epoch() + 4); err != nil {
		t.Fatal(err)
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}

	ru, err := c.RollUp()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(ru.Missing, ","), strings.Join(streamsOn(c, fenced, streams), ","); got != want {
		t.Errorf("missing %v, want the fenced owner's %v", got, want)
	}
	if ru.NodesOK != 3 {
		t.Errorf("stale-epoch owner cost its quorum vote: %d of 3 answered", ru.NodesOK)
	}
	checkCovers(t, ru, rows)
}

// TestRollUpAdvancesLaggingStream loses arrivals of one stream (the
// client counted values its owner never applied): the owner advances
// the stream to the sent count with exactly the taint the client-side
// AdvanceSummary gives, so the roll-up's bytes equal the client-side
// fold's.
func TestRollUpAdvancesLaggingStream(t *testing.T) {
	cfg, nodes := fleetOf(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 9)
	feedRows(t, c, nodes, streams, 64)
	c.recordSent(streams[0], 10)

	ru, err := c.RollUp()
	if err != nil {
		t.Fatal(err)
	}
	if len(ru.Missing) != 0 || len(ru.Tree.TaintSpans()) == 0 || ru.Tree.Arrivals() != 74 {
		t.Errorf("lagging roll-up: missing %v, taint %v, %d arrivals", ru.Missing, ru.Tree.TaintSpans(), ru.Tree.Arrivals())
	}
	if !bytes.Equal(ru.Tree.AppendSummary(nil), wantRollUp(t, c, nodes)) {
		t.Error("roll-up differs from the client-side fold with AdvanceSummary")
	}
}

// TestRollUpDeterministic folds a quiesced fleet twice: both roll-ups
// encode byte-identically, and equal the client-side fold in the
// documented order. The values use full float precision, so their
// sums round differently in another order.
func TestRollUpDeterministic(t *testing.T) {
	cfg, nodes := fleetOf(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 30)
	src := stream.UniformRange(11, 0, 100)
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = make([]float64, len(streams))
		for j := range rows[i] {
			rows[i][j] = src.Next()
		}
	}
	shipRows(t, c, nodes, streams, rows)

	want := wantRollUp(t, c, nodes)
	for run := 0; run < 2; run++ {
		ru, err := c.RollUp()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ru.Tree.AppendSummary(nil), want) {
			t.Errorf("run %d: roll-up bytes differ from the ordered fold", run)
		}
	}
}
