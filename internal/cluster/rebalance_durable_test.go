package cluster

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/wire"
)

// TestRebalanceOntoDurableNodeUnsupported pins the durable × resharding
// cell as unsupported and loudly refused. A durable monitor cannot
// install a handed-off summary: its write-ahead log replays raw
// arrivals and would shed the install on recovery. So a migCommit into
// a -data-dir node is a soft error frame that leaves the destination
// untouched, and a Rebalance onto such a node aborts with the old ring
// still authoritative.
func TestRebalanceOntoDurableNodeUnsupported(t *testing.T) {
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
	durableNode := startTestNodeAt(t, t.TempDir())
	nodes[durableNode.addr] = durableNode
	newRing, err := c.Ring().WithNode(durableNode.addr)
	if err != nil {
		t.Fatal(err)
	}
	streams := spreadStreams(t, c, 4)
	streams = append(streams, movers(t, c.Ring(), newRing, durableNode.addr, 2)...)
	const count = 64
	feedRows(t, c, nodes, streams, count)
	before, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}

	// The wire cell: a complete transfer of a bundle of one — a warm
	// summary named for a stream the durable node already holds.
	const resident = "resident"
	if err := durableNode.mon.Add(resident); err != nil {
		t.Fatal(err)
	}
	if err := durableNode.mon.ObserveBatch(resident, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	dstTree, err := durableNode.mon.Tree(resident)
	if err != nil {
		t.Fatal(err)
	}
	dstBefore := dstTree.AppendSummary(nil)
	srcTree, err := nodes[c.Owner(streams[0])].mon.Tree(streams[0])
	if err != nil {
		t.Fatal(err)
	}
	xfer, err := core.NewBundleTransfer([]string{resident}, []*core.Tree{srcTree})
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := xfer.Chunk(0, int(xfer.Len()))
	if err != nil {
		t.Fatal(err)
	}
	bc, err := wire.DialBinary(durableNode.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if st, err := bc.MigWrite(resident, 0, xfer.Len(), xfer.CRC(), chunk); err != nil || st.Have != xfer.Len() {
		t.Fatalf("transfer into the durable node: %+v, %v", st, err)
	}
	_, err = bc.MigCommit(resident, xfer.Len(), xfer.CRC(), 0)
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "cannot merge into a durable monitor") {
		t.Fatalf("commit into a durable node: %v, want multi's durable-monitor refusal", err)
	}
	if _, err := bc.Ping(); err != nil {
		t.Fatalf("connection did not survive the soft refusal: %v", err)
	}
	if !bytes.Equal(dstTree.AppendSummary(nil), dstBefore) {
		t.Fatal("refused commit changed the destination tree")
	}

	// The cluster cell: the Rebalance aborts at its first commit.
	if _, err := c.Rebalance(newRing, RebalanceOptions{}); err == nil || !strings.Contains(err.Error(), "durable monitor") {
		t.Fatalf("rebalance onto a durable node: %v, want the durable-monitor refusal", err)
	}
	if got := c.Ring().Epoch(); got != 1 {
		t.Fatalf("client epoch %d after the aborted rebalance, want 1", got)
	}
	for addr := range nodes {
		if e := serverStats(t, addr).Epoch; e >= newRing.Epoch() {
			t.Fatalf("node %s fenced to %d by an aborted rebalance", addr, e)
		}
	}
	for _, name := range streams {
		if _, err := durableNode.mon.Tree(name); err == nil {
			t.Errorf("stream %q landed on the durable node", name)
		}
	}
	after, err := c.PointAll(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if after[i].Err != nil || after[i].Degraded || after[i].Bound != 0 || after[i].Value != before[i].Value {
			t.Fatalf("stream %q after the aborted rebalance: %+v, want exactly %v", after[i].Stream, after[i], before[i].Value)
		}
	}
}
