package wire

import (
	"errors"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/core"
)

// TestPoolReusesConnections checks the basic lifecycle: Get dials, Put
// pools, the next Get reuses (one dial total), and over-MaxIdle returns
// close instead of pooling.
func TestPoolReusesConnections(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	p := &BinPool{Addr: addr, MaxIdle: 1}
	defer p.Close()

	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c1)
	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Error("Get did not reuse the pooled connection")
	}
	// Check out a second one while the first is out.
	c3, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c2)
	p.Put(c3) // over MaxIdle: closed, not pooled
	st := p.Stats()
	if st.Dials != 2 {
		t.Errorf("dials = %d, want 2", st.Dials)
	}
	if st.Idle != 1 {
		t.Errorf("idle = %d, want 1 (MaxIdle)", st.Idle)
	}
	if st.Retries != 0 || st.Discards != 0 {
		t.Errorf("healthy lifecycle counted retries=%d discards=%d", st.Retries, st.Discards)
	}
}

// TestPoolBackoffDeterminism pins the seeded jitter: same seed, same
// schedule; different seed, different schedule (desynchronized fleets).
func TestPoolBackoffDeterminism(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		p := &BinPool{Addr: "unused", Seed: seed, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 500 * time.Millisecond}
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = p.backoffFor(i)
		}
		return out
	}
	a, b, c := schedule(42), schedule(42), schedule(43)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: same seed diverged (%v vs %v)", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
		// Bounded: in [d/2, d] for d = base<<i capped at max.
		d := 10 * time.Millisecond << uint(i)
		if d <= 0 || d > 500*time.Millisecond {
			d = 500 * time.Millisecond
		}
		if a[i] < d/2 || a[i] > d {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", i, a[i], d/2, d)
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
}

// TestPoolRetriesTransportErrors takes a server down mid-flight: Do's
// first attempt hits the dead socket, the redial reaches the restarted
// server, and the retry shows up in stats.
func TestPoolRetriesTransportErrors(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 16})
	p := &BinPool{Addr: addr, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, MaxAttempts: 8}
	defer p.Close()

	// Warm one connection, then kill the server behind it.
	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c)
	shutdown()

	// The pooled conn is dead and the address refuses dials: Do must
	// fail after its attempts, counting retries and discards.
	err = p.Do(func(c *BinClient) error {
		_, err := c.Ping()
		return err
	})
	if err == nil {
		t.Fatal("Do succeeded against a dead server")
	}
	st := p.Stats()
	if st.Retries == 0 {
		t.Errorf("no retries counted after transport failures: %+v", st)
	}
	if st.Discards == 0 {
		t.Errorf("dead pooled connection was not discarded: %+v", st)
	}

	// Resurrect on the same address: Do heals by redialing.
	srv, err := NewServer(core.Options{WindowSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	if _, err := srv.Listen(addr); err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		<-done
	}()
	if err := p.Do(func(c *BinClient) error {
		_, err := c.Ping()
		return err
	}); err != nil {
		t.Fatalf("Do after server restart: %v", err)
	}
}

// TestPoolDoesNotRetryRemoteErrors: a server-side refusal is not a
// transport fault — Do returns it immediately, keeps the connection,
// and counts no retry.
func TestPoolDoesNotRetryRemoteErrors(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	p := &BinPool{Addr: addr}
	defer p.Close()

	err := p.Do(func(c *BinClient) error {
		// Stream queries need a monitor; this server has none, so the
		// server answers with an error frame.
		_, _, _, err := c.StreamPoint("nope", 0)
		return err
	})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("Do error = %v, want the server's RemoteError", err)
	}
	st := p.Stats()
	if st.Retries != 0 {
		t.Errorf("remote refusal was retried %d times", st.Retries)
	}
	if st.Discards != 0 {
		t.Errorf("remote refusal discarded the connection")
	}
	if st.Idle != 1 {
		t.Errorf("idle = %d, want 1 (connection pooled after refusal)", st.Idle)
	}
}

// TestPoolDoFailsFastOnDeadDials: Get owns the dial retry budget, so a
// Do against an address nothing listens on costs MaxAttempts dials
// total, not MaxAttempts², and the callback never runs.
func TestPoolDoFailsFastOnDeadDials(t *testing.T) {
	p := &BinPool{Addr: "127.0.0.1:1", MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	defer p.Close()
	calls := 0
	if err := p.Do(func(*BinClient) error { calls++; return nil }); err == nil {
		t.Fatal("Do succeeded with nothing listening")
	}
	if calls != 0 {
		t.Errorf("callback ran %d times without a connection", calls)
	}
	if st := p.Stats(); st.Retries != 2 {
		t.Errorf("retries = %d, want 2 (Get's dial retries only, not Do×Get)", st.Retries)
	}
}

func TestPoolClosed(t *testing.T) {
	p := &BinPool{Addr: "127.0.0.1:1"}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Get after Close = %v, want ErrPoolClosed", err)
	}
	if err := p.Do(func(*BinClient) error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Do after Close = %v, want ErrPoolClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}
