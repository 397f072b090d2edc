package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/streamsum/swat/internal/core"
)

// The type bytes of the wire requests a cut targets: the epoch frame
// (op, epoch; op 1 fences), migRead (a u32-counted name list, then
// offset, crc, max), migWrite (key, offset, total, crc, then a
// u32-counted data run) and migCommit (key, total, crc, epoch).
const (
	epochFrame     = 0x11
	migReadFrame   = 0x13
	migWriteFrame  = 0x15
	migCommitFrame = 0x17
)

// migRequest parses a request body: its frame type and, for the mig
// requests, the ledger entry "type key@offset" (a commit's offset is
// its total; migRead has no key) and a migWrite's data length.
func migRequest(body []byte) (typ byte, entry string, data int) {
	if len(body) == 0 {
		return 0, "", 0
	}
	typ = body[0]
	var key string
	at := 5
	switch typ {
	case migReadFrame:
		for n := binary.BigEndian.Uint32(body[1:]); n > 0; n-- {
			at += 2 + int(binary.BigEndian.Uint16(body[at:]))
		}
	case migWriteFrame, migCommitFrame:
		at = 3 + int(binary.BigEndian.Uint16(body[1:]))
		key = string(body[3:at])
	default:
		return typ, "", 0
	}
	if typ == migWriteFrame {
		data = int(binary.BigEndian.Uint32(body[at+20:]))
	}
	return typ, ledgerEntry(typ, key, int64(binary.BigEndian.Uint64(body[at:]))), data
}

func ledgerEntry(typ byte, key string, off int64) string {
	return fmt.Sprintf("%#x %s@%d", typ, key, off)
}

func isType(entry string, typ byte) bool {
	return strings.HasPrefix(entry, fmt.Sprintf("%#x ", typ))
}

// ofType keeps the ledger entries of one frame type.
func ofType(ledger []string, typ byte) []string {
	var out []string
	for _, e := range ledger {
		if isType(e, typ) {
			out = append(out, e)
		}
	}
	return out
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

// growingFleet is a proxied fleet of members with a proxied newcomer
// and a client whose moved set is perSource streams from each member.
type growingFleet struct {
	c        *Client
	nodes    map[string]*testNode
	proxies  map[string]*frameProxy
	newcomer string
	newRing  *Ring
	moved    []string
}

func startGrowingFleet(t *testing.T, members, perSource int) *growingFleet {
	t.Helper()
	cfg, nodes, proxies := proxiedFleet(t, members)
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
		f := startGrowingFleet(t, 2, perSource)
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

// bundleLens returns the old owners in pair order and the length of
// the bundle each will export: its moved trees, as it holds them now.
func (f *growingFleet) bundleLens(t *testing.T) ([]string, map[string]int64) {
	t.Helper()
	bySource := make(map[string][]string)
	for _, s := range f.moved {
		from := f.c.Owner(s)
		bySource[from] = append(bySource[from], s)
	}
	var sources []string
	lens := make(map[string]int64)
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
		sources = append(sources, from)
		lens[from] = xfer.Len()
	}
	sort.Strings(sources)
	return sources, lens
}

// TestRebalanceResumesCutPush cuts one leg of a three-pair handoff at
// the k-th request of one frame type — migRead at the first pair's
// source, migWrite or migCommit at the new owner — for k = 1, 2, 3 and
// the last: once, so the pool's retry resumes within the same
// Rebalance ("attempt"), or for good, so the Rebalance fails with the
// old ring in force and a retried one resumes ("rebalance"). Either
// way the new owner receives each bundle chunk exactly once, in order
// — a resumed push probes its resume token first — and ends with trees
// byte for byte what an uncut handoff installs. Retried within the
// call, the cut changes no ledger: both proxies forward exactly the
// uncut run's mig requests, in the same order.
func TestRebalanceResumesCutPush(t *testing.T) {
	frames := []struct {
		name string
		typ  byte
	}{{"migRead", migReadFrame}, {"migWrite", migWriteFrame}, {"migCommit", migCommitFrame}}
	for _, retried := range []string{"attempt", "rebalance"} {
		t.Run(retried, func(t *testing.T) {
			for _, fr := range frames {
				for _, k := range []int{1, 2, 3, 0} {
					name := fmt.Sprintf("%s-%d", fr.name, k)
					if k == 0 {
						name = fr.name + "-last"
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cutLeg(t, fr.typ, k, retried == "rebalance")
					})
				}
			}
		})
	}
}

// cutLeg runs one TestRebalanceResumesCutPush case; k = 0 cuts the
// last request of the type.
func cutLeg(t *testing.T, typ byte, k int, forGood bool) {
	f := startGrowingFleet(t, 3, 4)
	const chunk = 256
	sources, lens := f.bundleLens(t)
	// The uncut run's ledgers: the first pair's source serves its
	// reads, the new owner takes each pair's writes, then its commit.
	src := sources[0]
	want := make(map[string][]string)
	for _, from := range sources {
		n := lens[from]
		if n <= 3*chunk {
			t.Fatalf("bundle from %s is %d bytes: too small to cut mid-transfer", from, n)
		}
		for off := int64(0); off < n; off += chunk {
			if from == src {
				want[src] = append(want[src], ledgerEntry(migReadFrame, "", off))
			}
			want[f.newcomer] = append(want[f.newcomer], ledgerEntry(migWriteFrame, from, off))
		}
		want[f.newcomer] = append(want[f.newcomer], ledgerEntry(migCommitFrame, from, n))
	}
	cutAt := f.newcomer
	if typ == migReadFrame {
		cutAt = src
	}
	if k == 0 {
		k = len(ofType(want[cutAt], typ))
	}
	// What the new owner receives before the cut: nothing, when the
	// cut is at the first source's export.
	var before []string
	if cutAt == f.newcomer {
		seen := 0
		for _, e := range want[cutAt] {
			if isType(e, typ) {
				if seen++; seen == k {
					break
				}
			}
			before = append(before, e)
		}
	}

	// Each proxy records the mig requests it forwards; resume probes
	// (writes without data) are not ledger entries.
	var mu sync.Mutex
	got := make(map[string][]string)
	seen := 0
	for _, addr := range []string{src, f.newcomer} {
		p := f.proxies[addr]
		filter := func(body []byte) bool {
			ft, entry, data := migRequest(body)
			mu.Lock()
			defer mu.Unlock()
			if addr == cutAt && ft == typ {
				if seen++; seen == k {
					p.drop.Store(forGood)
					return false
				}
			}
			if entry != "" && (ft != migWriteFrame || data > 0) {
				got[addr] = append(got[addr], entry)
			}
			return true
		}
		p.filter.Store(&filter)
	}
	ledger := func(addr string) []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got[addr]...)
	}

	opts := RebalanceOptions{ChunkBytes: chunk}
	report, err := f.c.Rebalance(f.newRing, opts)
	if forGood {
		if err == nil {
			t.Fatal("Rebalance succeeded with a leg cut for good")
		}
		if got := f.c.Ring().Epoch(); got != 1 {
			t.Fatalf("client epoch %d after the failed Rebalance, want 1", got)
		}
		if got := ledger(f.newcomer); !reflect.DeepEqual(got, before) {
			t.Fatalf("the new owner took %v before the cut, want %v", got, before)
		}
		f.proxies[cutAt].drop.Store(false)
		report, err = f.c.Rebalance(f.newRing, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	cut := seen >= k
	mu.Unlock()
	if !cut {
		t.Fatal("the leg was never cut")
	}
	if got, want := ofType(ledger(f.newcomer), migWriteFrame), ofType(want[f.newcomer], migWriteFrame); !reflect.DeepEqual(got, want) {
		t.Fatalf("the new owner took writes\n%v\nwant each chunk once, in order\n%v", got, want)
	}
	for addr, w := range want {
		if got := ledger(addr); !forGood && !reflect.DeepEqual(got, w) {
			t.Fatalf("%s forwarded\n%v\nwant the uncut run's\n%v", addr, got, w)
		}
	}
	f.checkHandoff(t, report)
}

// TestRebalanceFenceCut drops the cutover's fence (an epoch set) to the
// new owner, once or for good. Once, the pool's retry fences it and no
// node is left unfenced. For good, the flip still happens with the new
// owner listed in Unfenced, and once the link heals the new owner
// adopts the new epoch from the first stamped frame it serves.
func TestRebalanceFenceCut(t *testing.T) {
	for _, forGood := range []bool{false, true} {
		t.Run(map[bool]string{false: "once", true: "for-good"}[forGood], func(t *testing.T) {
			t.Parallel()
			f := startGrowingFleet(t, 2, 1)
			dst := f.proxies[f.newcomer]
			var fences atomic.Int64
			filter := func(body []byte) bool {
				if body[0] != epochFrame || body[1] != 1 {
					return true
				}
				return fences.Add(1) > 1 && !forGood
			}
			dst.filter.Store(&filter)
			report, err := f.c.Rebalance(f.newRing, RebalanceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			f.checkHandoff(t, report)
			epoch := func() uint64 { return serverStats(t, f.nodes[f.newcomer].addr).Epoch }
			if got := f.c.Ring().Epoch(); got != 2 || fences.Load() < 2 {
				t.Fatalf("client at epoch %d after %d fences to the new owner, want 2 after a retry", got, fences.Load())
			}
			if !forGood {
				if len(report.Unfenced) != 0 || epoch() != 2 {
					t.Fatalf("unfenced %v, new owner at epoch %d: want the retried fence to land", report.Unfenced, epoch())
				}
				return
			}
			if !reflect.DeepEqual(report.Unfenced, []string{f.newcomer}) || epoch() >= 2 {
				t.Fatalf("unfenced %v, new owner at epoch %d: want it alone unfenced, behind epoch 2", report.Unfenced, epoch())
			}
			dst.filter.Store(nil)
			if _, err := f.c.PointAll(0); err != nil {
				t.Fatal(err)
			}
			if got := epoch(); got != 2 {
				t.Fatalf("healed new owner at epoch %d after a stamped frame, want 2", got)
			}
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
