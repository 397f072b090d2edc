package wire

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
)

// waitArrivals polls the server through c until its tree has applied
// want arrivals. The v2 data plane is one-way and applied by the ingest
// worker, so tests must sync through stats rather than responses.
func waitArrivals(t *testing.T, c *BinClient, want int64) StatsV2 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if st.Arrivals >= want {
			if st.Arrivals > want {
				t.Fatalf("arrivals = %d, want %d", st.Arrivals, want)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("arrivals stuck at %d, want %d", st.Arrivals, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBinaryEndToEnd(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 32})
	defer shutdown()

	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ServerPolicy() != IngestBlock || c.ServerQueueCap() != 256 {
		t.Errorf("negotiated policy=%v queueCap=%d, want block/256", c.ServerPolicy(), c.ServerQueueCap())
	}

	shadow, _ := stream.NewWindow(32)
	src := stream.RandomWalk(4, 50, 2, 0, 100)
	batch := make([]float64, 24)
	for i := 0; i < 4; i++ {
		for j := range batch {
			batch[j] = src.Next()
			shadow.Push(batch[j])
		}
		if err := c.FeedBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if c.Sent() != 96 {
		t.Errorf("sent = %d, want 96", c.Sent())
	}
	st := waitArrivals(t, c, 96)
	if !st.Ready || st.Window != 32 || st.Nodes != 13 {
		t.Errorf("stats = %+v", st)
	}
	if st.EnqueuedValues != 96 || st.ShedValues != 0 || st.IngestErrors != 0 {
		t.Errorf("queue accounting = %+v", st)
	}

	q1, _ := query.New(query.Exponential, 0, 8, 0)
	q2, _ := query.New(query.Linear, 0, 16, 0)
	dst := make([]float64, 2)
	if err := c.QueryBatch([]query.Query{q1, q2}, dst); err != nil {
		t.Fatal(err)
	}
	for i, q := range []query.Query{q1, q2} {
		exact, _ := query.Exact(shadow, q)
		if math.Abs(dst[i]-exact) > 0.25*math.Abs(exact)+1 {
			t.Errorf("query %d = %v, exact = %v", i, dst[i], exact)
		}
	}

	if d, err := c.Ping(); err != nil || d <= 0 {
		t.Errorf("ping = %v, %v", d, err)
	}
}

// TestBinaryMatchesTwin answers point, inner-product and range queries
// over the wire and requires results bit-identical to an in-process
// twin tree fed the same batch: the protocol is an encoding change, not
// a semantic one.
func TestBinaryMatchesTwin(t *testing.T) {
	opts := core.Options{WindowSize: 16}
	addr, _, shutdown := startServer(t, opts)
	defer shutdown()
	twin, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	bc := dialBinary(t, addr)
	vals := make([]float64, 48)
	src := stream.Uniform(7)
	for i := range vals {
		vals[i] = src.Next()
	}
	if err := bc.FeedBatch(vals); err != nil {
		t.Fatal(err)
	}
	twin.UpdateBatch(vals)
	waitArrivals(t, bc, 48)

	for age := 0; age < 16; age++ {
		got, err := pointQuery(bc, age)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.PointQuery(age)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("point(%d) over the wire %v != twin %v", age, got, want)
		}
	}
	q, _ := query.New(query.Exponential, 0, 8, 0)
	got := make([]float64, 1)
	if err := bc.QueryBatch([]query.Query{q}, got); err != nil {
		t.Fatal(err)
	}
	want, err := twin.InnerProduct(q.Ages, q.Weights)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got[0]) != math.Float64bits(want) {
		t.Errorf("inner product over the wire %v != twin %v", got[0], want)
	}
	gotRange, err := rangeQuery(bc, 50, 30, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	wantRange, err := twin.RangeQuery(50, 30, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRange) == 0 || !reflect.DeepEqual(gotRange, wantRange) {
		t.Errorf("range over the wire %v != twin %v", gotRange, wantRange)
	}
}

// TestMixedVersionClients opens connections that do not start with the
// SWA2 magic (a retired JSON client's length prefix, a wrong magic, an
// HTTP request) beside binary clients feeding data: each foreign
// connection must be closed without a reply byte, and every value from
// the binary clients must still land in the tree.
func TestMixedVersionClients(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 64})
	defer shutdown()

	openers := [][]byte{
		append([]byte{0, 0, 0, 16}, `{"type":"stats"}`...),
		[]byte("SWA1"),
		[]byte("GET / HTTP/1.1\r\n\r\n"),
	}
	const (
		v2Clients = 3
		perClient = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, len(openers)+v2Clients)
	for _, opener := range openers {
		wg.Add(1)
		go func(opener []byte) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
				errs <- err
				return
			}
			if _, err := conn.Write(opener); err != nil {
				errs <- err
				return
			}
			// A close with unread input may arrive as a reset rather than
			// EOF; either is fine, a reply byte or a timeout is not.
			n, err := conn.Read(make([]byte, 64))
			var ne net.Error
			if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				errs <- fmt.Errorf("opener %q: read %d bytes, err %v; want a close without reply", opener, n, err)
			}
		}(opener)
	}
	for i := 0; i < v2Clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialBinary(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			batch := make([]float64, 20)
			for j := 0; j < perClient/len(batch); j++ {
				for k := range batch {
					batch[k] = float64(j*len(batch) + k)
				}
				if err := c.FeedBatch(batch); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitArrivals(t, dialBinary(t, addr), v2Clients*perClient)
}

// TestBinarySequenceEnforced checks the per-connection contiguity
// guard: a data frame whose firstIndex skips ahead must kill the
// connection with an error instead of silently corrupting the summary.
func TestBinarySequenceEnforced(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.FeedBatch([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c.next += 5 // client bug: skip values
	if err := c.FeedBatch([]float64{4, 5}); err != nil {
		t.Fatal(err) // one-way: the write itself succeeds
	}
	// The server's error frame (or the close behind it) surfaces on the
	// next round-trip.
	if _, err := c.Ping(); err == nil {
		t.Fatal("sequence break not rejected")
	} else if !strings.Contains(err.Error(), "sequence") && err != io.EOF {
		t.Logf("rejection surfaced as: %v", err)
	}
	// The tree kept only the pre-break values.
	c2, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrivals > 3 {
		t.Errorf("arrivals = %d after sequence break, want <= 3", st.Arrivals)
	}
}

// TestBinaryVersionMismatch dials raw and offers an unsupported
// protocol version; the server must answer with an error frame.
func TestBinaryVersionMismatch(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := append([]byte{}, binMagic[:]...)
	msg = codec.AppendFrame(msg, []byte{bfHello, 99})
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	body, _, err := readBinFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 || body[0] != bfError || !strings.Contains(string(body[1:]), "unsupported protocol version") {
		t.Errorf("response = %q", body)
	}
}

// TestBinaryColdQuerySoftError checks that a query the tree cannot
// answer yet gets an error frame but keeps the connection.
func TestBinaryColdQuerySoftError(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q, _ := query.New(query.Point, 0, 1, 0)
	if err := c.QueryBatch([]query.Query{q}, make([]float64, 1)); err == nil {
		t.Fatal("cold-tree query succeeded")
	}
	// Connection survives the soft error.
	if _, err := c.Ping(); err != nil {
		t.Fatalf("connection died after soft error: %v", err)
	}
}

// TestBinaryMalformedFrameFatal checks that a structurally invalid
// frame (bad type byte) kills the connection.
func TestBinaryMalformedFrameFatal(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame := codec.AppendFrame(nil, []byte{0x7F, 1, 2, 3})
	if _, err := c.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ping(); err == nil {
		t.Fatal("malformed frame tolerated")
	}
}

// TestFeedBatchSplitsLargeBatches pushes more values than one frame can
// carry and checks they all arrive.
func TestFeedBatchSplitsLargeBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("2 MB batch")
	}
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vals := make([]float64, MaxBatchValues+100)
	for i := range vals {
		vals[i] = float64(i % 32)
	}
	if err := c.FeedBatch(vals); err != nil {
		t.Fatal(err)
	}
	waitArrivals(t, c, int64(len(vals)))
}

// TestBinaryQueryRoundTripCodec exercises the frame encode/decode pairs
// directly, including the scratch reuse across differently shaped
// batches.
func TestBinaryQueryRoundTripCodec(t *testing.T) {
	qs := []query.Query{
		{Ages: []int{0, 1, 2}, Weights: []float64{1, 0.5, 0.25}},
		{Ages: []int{7}, Weights: []float64{-3}},
	}
	frame := appendQueryFrame(nil, qs)
	body, n, err := codec.Next(frame, MaxFrame)
	if err != nil || n != len(frame) {
		t.Fatalf("codec.Next: %v (n=%d, len=%d)", err, n, len(frame))
	}
	if body[0] != bfQuery {
		t.Fatalf("type = %#x", body[0])
	}
	var sc binQueryScratch
	if err := decodeQueryFrame(body[1:], &sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.qs) != 2 || sc.qs[0].Ages[2] != 2 || sc.qs[1].Weights[0] != -3 {
		t.Fatalf("decoded %+v", sc.qs)
	}
	// Reuse with a different shape: the old contents must not leak.
	qs2 := []query.Query{{Ages: []int{9, 10}, Weights: []float64{2, 4}}}
	frame2 := appendQueryFrame(frame[:0], qs2)
	body2, _, err := codec.Next(frame2, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeQueryFrame(body2[1:], &sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.qs) != 1 || sc.qs[0].Ages[1] != 10 || sc.qs[0].Weights[1] != 4 {
		t.Fatalf("reused decode %+v", sc.qs)
	}

	// Answer frames.
	ans := appendAnswerFrame(nil, []float64{1.5, -2.5})
	abody, _, err := codec.Next(ans, MaxFrame)
	if err != nil || abody[0] != bfAnswer {
		t.Fatalf("answer frame: %v", err)
	}
	dst := make([]float64, 2)
	if err := decodeAnswerFrame(abody[1:], dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1.5 || dst[1] != -2.5 {
		t.Fatalf("answers %v", dst)
	}
	if err := decodeAnswerFrame(abody[1:], make([]float64, 3)); err == nil {
		t.Fatal("length mismatch accepted")
	}

	// Data frames.
	df := appendDataFrame(nil, 42, []float64{3, 1, 4})
	dbody, _, err := codec.Next(df, MaxFrame)
	if err != nil || dbody[0] != bfData {
		t.Fatalf("data frame: %v", err)
	}
	first, vals, err := decodeDataFrame(dbody[1:], nil)
	if err != nil || first != 42 || len(vals) != 3 || vals[2] != 4 {
		t.Fatalf("data decode: first=%d vals=%v err=%v", first, vals, err)
	}

	// Stats frames.
	st := StatsV2{Arrivals: 7, Window: 32, Nodes: 13, Ready: true,
		Policy: IngestShed, QueueCap: 4, QueueLen: 2,
		EnqueuedValues: 100, ShedValues: 8, IngestErrors: 1}
	sf := appendStatsResFrame(nil, st)
	sbody, _, err := codec.Next(sf, MaxFrame)
	if err != nil || sbody[0] != bfStatsRes {
		t.Fatalf("stats frame: %v", err)
	}
	got, err := decodeStatsResFrame(sbody[1:])
	if err != nil || got != st {
		t.Fatalf("stats decode: %+v err=%v", got, err)
	}
}
