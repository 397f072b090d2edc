package wire

import (
	"testing"
	"time"

	"github.com/streamsum/swat/internal/core"
)

// startServerWith is startServer with backpressure knobs.
func startServerWith(t *testing.T, opts core.Options, queue int, policy IngestPolicy) (string, *Server, func()) {
	t.Helper()
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	srv.IngestQueue = queue
	srv.Policy = policy
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	return addr.String(), srv, func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

// TestIngestShed stalls the apply worker and floods a 1-slot queue
// under the shed policy: overflow batches must be counted and dropped
// while the connection keeps flowing, and everything accepted must
// still reach the tree once the worker resumes.
func TestIngestShed(t *testing.T) {
	addr, srv, shutdown := startServerWith(t, core.Options{WindowSize: 16}, 1, IngestShed)
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ServerPolicy() != IngestShed || c.ServerQueueCap() != 1 {
		t.Fatalf("negotiated policy=%v cap=%d", c.ServerPolicy(), c.ServerQueueCap())
	}

	// Stall the worker: it dequeues at most one batch and then blocks on
	// the server mutex, so the queue (capacity 1) fills immediately.
	srv.mu.Lock()
	const batches, per = 10, 8
	vals := make([]float64, per)
	for i := range vals {
		vals[i] = float64(i)
	}
	for i := 0; i < batches; i++ {
		if err := c.FeedBatch(vals); err != nil {
			srv.mu.Unlock()
			t.Fatal(err)
		}
	}
	// Stats is served by the connection handler, after the data frames
	// on the same connection — by then every batch was enqueued or shed.
	st, err := c.Stats()
	if err != nil {
		srv.mu.Unlock()
		t.Fatal(err)
	}
	srv.mu.Unlock()
	if st.EnqueuedValues+st.ShedValues != batches*per {
		t.Errorf("enqueued %d + shed %d != %d sent", st.EnqueuedValues, st.ShedValues, batches*per)
	}
	// Worker holds one batch, the queue one more; everything else shed.
	if st.ShedValues < (batches-2)*per {
		t.Errorf("shed = %d, want >= %d", st.ShedValues, (batches-2)*per)
	}
	if st.Policy != IngestShed || st.QueueCap != 1 {
		t.Errorf("stats policy/cap = %v/%d", st.Policy, st.QueueCap)
	}

	// Resumed worker applies exactly the accepted values.
	waitArrivals(t, c, int64(st.EnqueuedValues))
}

// TestIngestBlockDeliversAll floods a 1-slot queue under the default
// block policy: the sender stalls instead of losing data, and every
// value lands.
func TestIngestBlockDeliversAll(t *testing.T) {
	addr, _, shutdown := startServerWith(t, core.Options{WindowSize: 16}, 1, IngestBlock)
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const batches, per = 50, 16
	vals := make([]float64, per)
	for i := 0; i < batches; i++ {
		for j := range vals {
			vals[j] = float64(i*per + j)
		}
		if err := c.FeedBatch(vals); err != nil {
			t.Fatal(err)
		}
	}
	st := waitArrivals(t, c, batches*per)
	if st.ShedValues != 0 {
		t.Errorf("block policy shed %d values", st.ShedValues)
	}
	if st.EnqueuedValues != batches*per {
		t.Errorf("enqueued = %d, want %d", st.EnqueuedValues, batches*per)
	}
}

// TestCloseDrainsIngestQueue checks shutdown ordering: batches already
// accepted into the queue are applied before Close returns, so an
// orderly shutdown loses nothing.
func TestCloseDrainsIngestQueue(t *testing.T) {
	srv, err := NewServer(core.Options{WindowSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	srv.IngestQueue = 64
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
	// Stall the worker so batches pile up in the queue.
	srv.mu.Lock()
	vals := []float64{1, 2, 3, 4}
	for i := 0; i < 8; i++ {
		if err := c.FeedBatch(vals); err != nil {
			srv.mu.Unlock()
			t.Fatal(err)
		}
	}
	// Wait until the handler has enqueued everything (stats follows the
	// data frames on the wire).
	if _, err := c.Stats(); err != nil {
		srv.mu.Unlock()
		t.Fatal(err)
	}
	srv.mu.Unlock()
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := srv.def.tree.Arrivals(); got != 32 {
		t.Errorf("arrivals after close = %d, want 32", got)
	}
}

// TestIngestPolicyString pins the CLI-facing names.
func TestIngestPolicyString(t *testing.T) {
	if IngestBlock.String() != "block" || IngestShed.String() != "shed" {
		t.Errorf("policy names = %q/%q", IngestBlock, IngestShed)
	}
}

// TestIngestQueueRecycles checks the free-list round trip directly.
func TestIngestQueueRecycles(t *testing.T) {
	q := newIngestQueue(2)
	b := q.get()
	b.vals = append(b.vals, 1, 2, 3)
	if !q.offer(b, IngestBlock) {
		t.Fatal("offer with free slot failed")
	}
	if q.enqueued.Load() != 3 {
		t.Errorf("enqueued = %d", q.enqueued.Load())
	}
	got := <-q.ch
	if got != b {
		t.Error("queue returned a different batch")
	}
	q.put(got)
	if again := q.get(); again != b {
		t.Error("free list did not recycle the batch")
	}
	// Shed path: fill the queue, then overflow.
	q2 := newIngestQueue(1)
	b1 := q2.get()
	b1.vals = append(b1.vals, 1)
	q2.offer(b1, IngestShed)
	b2 := q2.get()
	b2.vals = append(b2.vals, 2, 3)
	if q2.offer(b2, IngestShed) {
		t.Error("offer into full queue accepted under shed")
	}
	if q2.shed.Load() != 2 {
		t.Errorf("shed = %d, want 2", q2.shed.Load())
	}
	if recycled := q2.get(); recycled != b2 {
		t.Error("shed batch was not recycled")
	}
	// Allow a short window for nothing else to have happened; the queue
	// still holds b1 untouched.
	select {
	case got := <-q2.ch:
		if got != b1 || len(got.vals) != 1 {
			t.Errorf("queued batch = %+v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("accepted batch lost")
	}
}
