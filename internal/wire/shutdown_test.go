package wire

import (
	"testing"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/durable"
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

// TestServerWithStore runs the full durable loop over the wire: feed
// through data frames, shut down, and verify a rebuilt server over the
// same directory resumes at the same arrival count and tree state.
func TestServerWithStore(t *testing.T) {
	dir := t.TempDir()
	geom := core.Options{WindowSize: 16, Coefficients: 2}

	srv, err := NewServer(geom)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	st, err := durable.Open(dir, srv.Tree(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseStore(st); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	c, err := DialBinary(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := c.FeedBatch([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitArrivals(t, c, 25)
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close server: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// Rebuild over the same directory: the tree comes back.
	srv2, err := NewServer(geom)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := durable.Open(dir, srv2.Tree(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := srv2.UseStore(st2); err != nil {
		t.Fatal(err)
	}
	if got := srv2.Tree().Arrivals(); got != 25 {
		t.Fatalf("recovered %d arrivals, want 25 (recovery: %s)", got, st2.Recovery())
	}
	if err := srv2.Feed(99); err != nil {
		t.Fatalf("feed after recovery: %v", err)
	}
	if got := srv2.Tree().Arrivals(); got != 26 {
		t.Fatalf("arrivals after post-recovery feed = %d, want 26", got)
	}
}

// TestUseStoreValidation pins the wiring mistakes UseStore rejects.
func TestUseStoreValidation(t *testing.T) {
	srv, err := NewServer(core.Options{WindowSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseStore(nil); err == nil {
		t.Error("nil store accepted")
	}
	other, err := core.New(core.Options{WindowSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	st, err := durable.Open(t.TempDir(), other, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := srv.UseStore(st); err == nil {
		t.Error("store over a foreign tree accepted")
	}
}
