package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/durable"
	"github.com/streamsum/swat/internal/multi"
	"github.com/streamsum/swat/internal/query"
)

// TestCloseFlushesSubscribers pins the shutdown contract: a change that
// stayed below the subscription's minChange threshold is still
// delivered as a final notify frame when the server closes, and Close
// itself completes even though the subscriber never disconnects.
func TestCloseFlushesSubscribers(t *testing.T) {
	addr, srv, shutdown := startServer(t, core.Options{WindowSize: 16})
	shutdownCalled := false
	defer func() {
		if !shutdownCalled {
			shutdown()
		}
	}()
	for i := 0; i < 32; i++ {
		srv.Feed(10)
	}

	sub := dialBinary(t, addr)
	q, _ := query.New(query.Point, 0, 1, 0)
	id, ch, err := sub.Subscribe(q, 5)
	if err != nil {
		t.Fatal(err)
	}

	feeder := dialBinary(t, addr)
	feedAcked(t, feeder, 10)
	first := waitNotification(t, ch)

	// Drift below the threshold: suppressed while running...
	feedAcked(t, feeder, 13)
	select {
	case n := <-ch:
		t.Fatalf("unexpected notification %+v for sub-threshold change", n)
	case <-time.After(100 * time.Millisecond):
	}

	// ...but flushed at shutdown, before the channel closes.
	closeDone := make(chan struct{})
	go func() {
		shutdownCalled = true
		shutdown()
		close(closeDone)
	}()
	n, ok := <-ch
	if !ok {
		t.Fatal("subscription channel closed without the final flush")
	}
	if n.ID != id || n.Value == first.Value {
		t.Fatalf("final flush %+v did not carry the suppressed change (had %v)", n, first.Value)
	}
	if _, ok := <-ch; ok {
		t.Error("channel delivered past the final flush")
	}
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a connected subscriber")
	}
}

// TestCloseWithIdleClientDoesNotHang pins that a connected client that
// never sends or reads anything cannot block shutdown.
func TestCloseWithIdleClientDoesNotHang(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 16})
	dialBinary(t, addr) // handshakes, then sits idle
	done := make(chan struct{})
	go func() {
		shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
}

// TestDataDirCoversEveryStream runs the durable loop over the wire: a
// server over a DataDir monitor takes data frames for the default
// stream and sdata frames for three named streams, shuts down, and a
// server rebuilt over the same directory serves every stream
// byte-identical to an in-memory twin fed the same values.
func TestDataDirCoversEveryStream(t *testing.T) {
	dir := t.TempDir()
	opts := multi.Options{WindowSize: 16, Coefficients: 2, DataDir: dir, Durable: durable.Options{CheckpointEvery: 20}}
	geom := core.Options{WindowSize: 16, Coefficients: 2}
	sent := map[string][]float64{"": nil, "alpha": nil, "beta": nil, "gamma/δ": nil}
	i := 0
	for name := range sent {
		for v := 0; v < 30+7*i; v++ {
			sent[name] = append(sent[name], float64(v*(i+1)%23))
		}
		i++
	}

	mon, err := multi.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, down := startServerWithMonitor(t, opts, mon)
	c := dialBinary(t, addr)
	for name, vals := range sent {
		if name == "" {
			err = c.FeedBatch(vals)
		} else {
			err = c.FeedStream(name, vals)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	down() // drains the ingest queue into the monitor
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "s-")); err != nil {
		t.Fatalf("default stream store missing: %v", err)
	}

	mon2, err := multi.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mon2.Close()
	addr2, srv2, down2 := startServerWithMonitor(t, opts, mon2) // recovers the default stream
	defer down2()
	for name := range sent {
		if name != "" {
			if err := mon2.Add(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	c2 := dialBinary(t, addr2)
	for name, vals := range sent {
		twin, err := core.New(geom)
		if err != nil {
			t.Fatal(err)
		}
		twin.UpdateBatch(vals)
		var sum *core.Summary
		if name == "" {
			sum, err = c2.FetchSummary()
		} else {
			sum, err = c2.FetchStreamSummary(name)
		}
		if err != nil {
			t.Fatalf("summary %q: %v", name, err)
		}
		if !bytes.Equal(encodedSummary(t, sum), twin.AppendSummary(nil)) {
			t.Errorf("stream %q recovered differently from its in-memory twin", name)
		}
	}
	if err := srv2.Feed(99); err != nil {
		t.Fatalf("feed after recovery: %v", err)
	}
	waitArrivals(t, c2, int64(len(sent[""])+1))
}
