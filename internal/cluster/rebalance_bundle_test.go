package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/streamsum/swat/internal/core"
)

// migWriteFrame is wire's migWrite frame type byte: key, offset,
// total, crc, then a u32-counted data run.
const migWriteFrame = 0x15

// migWriteData returns the length of a migWrite request's data run, or
// -1 for any other request.
func migWriteData(body []byte) int {
	if len(body) < 3 || body[0] != migWriteFrame {
		return -1
	}
	rest := body[3+int(binary.BigEndian.Uint16(body[1:])):]
	return int(binary.BigEndian.Uint32(rest[20:]))
}

// moversFrom picks perSource stream names that each member of oldRing
// hands to addr under newRing, so every old member is a source.
func moversFrom(t *testing.T, oldRing, newRing *Ring, addr string, perSource int) []string {
	t.Helper()
	got := make(map[string]int)
	var names []string
	for i := 0; len(names) < perSource*oldRing.Len(); i++ {
		if i > 1000000 {
			t.Fatal("placement never moved enough streams to the new node")
		}
		name := fmt.Sprintf("mover-%d", i)
		from := oldRing.Owner(name)
		if newRing.Owner(name) == addr && from != addr && got[from] < perSource {
			got[from]++
			names = append(names, name)
		}
	}
	return names
}

// growingFleet is a proxied two-node fleet with a proxied newcomer and
// a client whose moved set is perSource streams from each member.
type growingFleet struct {
	c        *Client
	nodes    map[string]*testNode
	proxies  map[string]*frameProxy
	newcomer string
	newRing  *Ring
	moved    []string
}

func startGrowingFleet(t *testing.T, perSource int) *growingFleet {
	t.Helper()
	cfg, nodes, proxies := proxiedFleet(t, 2)
	n := startTestNode(t)
	p := startFrameProxy(t, n.addr)
	nodes[p.addr], proxies[p.addr] = n, p
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	newRing, err := c.Ring().WithNode(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	moved := moversFrom(t, c.Ring(), newRing, p.addr, perSource)
	feedRows(t, c, nodes, moved, 40)
	return &growingFleet{c: c, nodes: nodes, proxies: proxies, newcomer: p.addr, newRing: newRing, moved: moved}
}

// requests sums the request frames every proxy forwarded.
func (f *growingFleet) requests() int64 {
	var n int64
	for _, p := range f.proxies {
		n += p.requests.Load()
	}
	return n
}

// checkHandoff asserts every moved stream landed warm on the newcomer
// byte for byte as the old owner holds it — what an uncut handoff
// installs.
func (f *growingFleet) checkHandoff(t *testing.T, report *MigrationReport) {
	t.Helper()
	if len(report.Moves) != len(f.moved) {
		t.Fatalf("%d moves, want %d", len(report.Moves), len(f.moved))
	}
	for _, mv := range report.Moves {
		if mv.Cold || mv.To != f.newcomer {
			t.Fatalf("move %+v: want a warm move onto %s", mv, f.newcomer)
		}
		src, err := f.nodes[mv.From].mon.Tree(mv.Stream)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := f.nodes[mv.To].mon.Tree(mv.Stream)
		if err != nil {
			t.Fatalf("moved stream %q missing on the newcomer: %v", mv.Stream, err)
		}
		want := src.AppendSummary(nil)
		if !bytes.Equal(dst.AppendSummary(nil), want) {
			t.Fatalf("moved stream %q differs from its uncut handoff", mv.Stream)
		}
		if mv.Bytes != int64(len(want)) {
			t.Fatalf("move %q reports %d bytes, its summary is %d", mv.Stream, mv.Bytes, len(want))
		}
	}
}

// TestRebalanceOneBundlePerNodePair pins the round count of a handoff:
// with every pair's bundle in one chunk, a Rebalance sends the same
// number of request frames whether it moves 8 streams or 64 — the
// drain pings, one read, one write and one commit per node pair, and
// the fences — never a frame per moved stream.
func TestRebalanceOneBundlePerNodePair(t *testing.T) {
	count := func(perSource int) int64 {
		f := startGrowingFleet(t, perSource)
		for _, p := range f.proxies {
			p.requests.Store(0)
		}
		report, err := f.c.Rebalance(f.newRing, RebalanceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := f.requests()
		f.checkHandoff(t, report)
		pairs, chunks := 0, 0
		for _, mv := range report.Moves {
			if mv.Chunks > 0 {
				pairs++
				chunks += mv.Chunks
			}
		}
		const drain, fences = 2, 3 // one ping per old member; every member of either ring
		if pairs != 2 || chunks != pairs {
			t.Fatalf("%d moves: %d pairs in %d chunks, want 2 pairs of one chunk each", len(report.Moves), pairs, chunks)
		}
		if bound := int64(drain + pairs*(1+1+1) + fences); got > bound {
			t.Fatalf("%d moves took %d request frames, want at most %d", len(report.Moves), got, bound)
		}
		return got
	}
	few, many := count(4), count(32)
	if few != many {
		t.Fatalf("8 moved streams took %d request frames, 64 took %d: the round count grows with the move set", few, many)
	}
}

// TestRebalanceResumesCutPush drops the new owner's connection in the
// middle of a multi-chunk push: once, so the pool's retry of the push
// resumes it within the same Rebalance, and for good, so the Rebalance
// fails and a retried one resumes it. Either way the push resumes from
// the new owner's resume token: across all attempts the new owner
// receives each bundle byte exactly once, and the trees it ends with
// are byte for byte what an uncut handoff installs.
func TestRebalanceResumesCutPush(t *testing.T) {
	for _, retried := range []string{"attempt", "rebalance"} {
		t.Run(retried, func(t *testing.T) {
			f := startGrowingFleet(t, 4)
			const chunk = 256
			// The bundles the old owners will export: their trees, by pair.
			bySource := make(map[string][]string)
			for _, s := range f.moved {
				from := f.c.Owner(s)
				bySource[from] = append(bySource[from], s)
			}
			var want int64
			for from, names := range bySource {
				trees := make([]*core.Tree, len(names))
				for i, s := range names {
					tr, err := f.nodes[from].mon.Tree(s)
					if err != nil {
						t.Fatal(err)
					}
					trees[i] = tr
				}
				// A bundle's length does not depend on its entries' order.
				xfer, err := core.NewBundleTransfer(names, trees)
				if err != nil {
					t.Fatal(err)
				}
				if xfer.Len() <= 3*chunk {
					t.Fatalf("bundle from %s is %d bytes: too small to cut mid-push", from, xfer.Len())
				}
				want += xfer.Len()
			}

			// The third chunk never arrives; for "rebalance", nothing
			// after it either until the first Rebalance has failed.
			dst := f.proxies[f.newcomer]
			var writes, pushed atomic.Int64
			filter := func(body []byte) bool {
				n := migWriteData(body)
				if n < 0 {
					return true
				}
				if writes.Add(1) == 3 {
					dst.drop.Store(retried == "rebalance")
					return false
				}
				pushed.Add(int64(n))
				return true
			}
			dst.filter.Store(&filter)

			opts := RebalanceOptions{ChunkBytes: chunk}
			report, err := f.c.Rebalance(f.newRing, opts)
			if retried == "rebalance" {
				if err == nil {
					t.Fatal("Rebalance succeeded with the new owner cut off mid-push")
				}
				if got := f.c.Ring().Epoch(); got != 1 {
					t.Fatalf("client epoch %d after the failed Rebalance, want 1", got)
				}
				if pushed.Load() != 2*chunk {
					t.Fatalf("%d bytes reached the new owner before the cut, want two chunks (%d)", pushed.Load(), 2*chunk)
				}
				dst.drop.Store(false)
				report, err = f.c.Rebalance(f.newRing, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if writes.Load() < 3 {
				t.Fatal("the push was never cut")
			}
			if got := pushed.Load(); got != want {
				t.Fatalf("the new owner received %d bundle bytes, want each of the %d exactly once", got, want)
			}
			f.checkHandoff(t, report)
		})
	}
}

// TestRebalanceMigTableBounded cycles a spare node in and out of one
// fleet ten times: the new owners key their inbound transfers by
// source node, so no server ever remembers more transfers than the
// distinct nodes that handed it streams, however many streams moved.
func TestRebalanceMigTableBounded(t *testing.T) {
	cfg, nodes := fleetOf(t, 3)
	spare := startTestNode(t)
	nodes[spare.addr] = spare
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	streams := spreadStreams(t, c, 24)
	sources := make(map[string]map[string]bool)
	moved := 0
	for cycle := 0; cycle < 10; cycle++ {
		for _, join := range []bool{true, false} {
			feedRows(t, c, nodes, streams, 8)
			var ring *Ring
			if join {
				ring, err = c.Ring().WithNode(spare.addr)
			} else {
				ring, err = c.Ring().WithoutNode(spare.addr)
			}
			if err != nil {
				t.Fatal(err)
			}
			report, err := c.Rebalance(ring, RebalanceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, mv := range report.Moves {
				if sources[mv.To] == nil {
					sources[mv.To] = make(map[string]bool)
				}
				sources[mv.To][mv.From] = true
			}
			moved += len(report.Moves)
			for addr, n := range nodes {
				if got, max := n.srv.MigTransfers(), len(sources[addr]); got > max {
					t.Fatalf("cycle %d: %s remembers %d transfers from %d sources", cycle, addr, got, max)
				}
			}
		}
	}
	if got := spare.srv.MigTransfers(); got == 0 || moved <= 3*len(nodes) {
		t.Fatalf("spare holds %d transfers after %d moves: the cycles moved too little to prove a bound", got, moved)
	}
}
