package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/wire"
)

// frameProxy fronts one test node on its own loopback port. It forwards
// bytes both ways, parsing the client-to-server direction into v2
// frames: it counts request frames (each connection's hello excluded)
// and, once dropping, reads the next request and closes the connection
// without forwarding it — a node that took the request and died.
type frameProxy struct {
	addr     string
	requests atomic.Int64
	drop     atomic.Bool

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
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
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
