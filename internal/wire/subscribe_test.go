package wire

import (
	"errors"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
)

// feedAcked streams vs on c and pings, so the server has taken every
// value into its ingest queue when it returns.
func feedAcked(t *testing.T, c *BinClient, vs ...float64) {
	t.Helper()
	if err := c.FeedBatch(vs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestSubscribeNotifications(t *testing.T) {
	addr, srv, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	// Warm the tree so standing queries are answerable immediately.
	for i := 0; i < 32; i++ {
		srv.Feed(10)
	}

	sub := dialBinary(t, addr)
	q, _ := query.New(query.Point, 0, 1, 0)
	id, ch, err := sub.Subscribe(q, 5) // notify on changes >= 5
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("subscription id = %d, want 1", id)
	}

	// A separate feeder connection drives data.
	feeder := dialBinary(t, addr)

	// First arrival after subscribing always notifies.
	feedAcked(t, feeder, 10)
	n := waitNotification(t, ch)
	if n.ID != id {
		t.Errorf("notification id = %d", n.ID)
	}
	first := n.Value

	// Small drift below minChange: no notification.
	feedAcked(t, feeder, 11)
	select {
	case n := <-ch:
		t.Fatalf("unexpected notification %+v for sub-threshold change", n)
	case <-time.After(100 * time.Millisecond):
	}

	// A big jump notifies.
	feedAcked(t, feeder, 60)
	feedAcked(t, feeder, 60)
	n = waitNotification(t, ch)
	if n.Value <= first {
		t.Errorf("notified value %v did not move above %v", n.Value, first)
	}
	if n.Arrivals == 0 {
		t.Error("notification missing arrival counter")
	}
}

func TestSubscribeValidation(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	c := dialBinary(t, addr)
	if _, _, err := c.Subscribe(query.Query{}, 1); err == nil {
		t.Error("invalid query accepted")
	}
	q, _ := query.New(query.Point, 0, 1, 0)
	var remote *RemoteError
	if _, _, err := c.Subscribe(q, -1); !errors.As(err, &remote) {
		t.Errorf("negative minChange: err = %v, want a server refusal", err)
	}
	// The refusal is soft: the connection still serves.
	if _, err := c.Ping(); err != nil {
		t.Errorf("connection died after a refused subscribe: %v", err)
	}
}

func TestSubscriberDisconnectCleansUp(t *testing.T) {
	addr, srv, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	for i := 0; i < 32; i++ {
		srv.Feed(5)
	}
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := query.New(query.Point, 0, 1, 0)
	if _, _, err := c.Subscribe(q, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Feeding after the subscriber is gone must not wedge the server;
	// cleanup happens when the handler notices the closed connection.
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.Feed(6)
		if !srv.hasSubscribers() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscriber still registered after disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitNotification(t *testing.T, ch <-chan Notification) Notification {
	t.Helper()
	select {
	case n, ok := <-ch:
		if !ok {
			t.Fatal("notification channel closed")
		}
		return n
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for notification")
	}
	return Notification{}
}
