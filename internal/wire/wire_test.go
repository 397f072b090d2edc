package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
)

// TestFrameRoundTrip writes frames of several types and sizes back to
// back and reads them through one reused readBinFrame buffer: each
// body comes back byte-identical whatever the size of the frame before
// it, and the clean end of the stream is io.EOF.
func TestFrameRoundTrip(t *testing.T) {
	frames := [][]byte{
		appendDataFrame(nil, 0, make([]float64, 300)),
		appendU64Frame(nil, bfPing, 7),
		appendQueryFrame(nil, []query.Query{{Ages: []int{1, 2}, Weights: []float64{1, 0.5}}}),
		appendSubscribeFrame(nil, query.Query{Ages: []int{0}, Weights: []float64{1}}, 0.5),
		appendNotifyFrame(nil, 3, 2.5, 99),
	}
	var all []byte
	for _, f := range frames {
		all = append(all, f...)
	}
	r := bytes.NewReader(all)
	var buf []byte
	for i, f := range frames {
		want, _, err := codec.Next(f, MaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		body, next, err := readBinFrame(r, buf)
		buf = next
		if err != nil || !bytes.Equal(body, want) {
			t.Fatalf("frame %d: read %x, %v; want %x", i, body, err, want)
		}
	}
	if _, _, err := readBinFrame(r, buf); !errors.Is(err, io.EOF) {
		t.Errorf("end of stream err = %v, want io.EOF", err)
	}
}

// TestReadFrameEOF pins readBinFrame's end-of-stream contract: a clean
// close between frames is io.EOF, a close inside a header or a body is
// an error that is not.
func TestReadFrameEOF(t *testing.T) {
	if _, _, err := readBinFrame(bytes.NewReader(nil), nil); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream err = %v, want io.EOF", err)
	}
	frame := appendU64Frame(nil, bfPing, 1)
	for _, cut := range []int{2, codec.HeaderLen + 3} {
		if _, _, err := readBinFrame(bytes.NewReader(frame[:cut]), nil); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("frame cut at %d: err = %v, want a non-EOF error", cut, err)
		}
	}
}

// TestReadFrameOversized checks that a length prefix past MaxFrame is
// refused before any buffer is sized from it.
func TestReadFrameOversized(t *testing.T) {
	hdr := make([]byte, codec.HeaderLen)
	binary.BigEndian.PutUint32(hdr, MaxFrame+1)
	_, buf, err := readBinFrame(bytes.NewReader(hdr), nil)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if cap(buf) > codec.HeaderLen {
		t.Errorf("buffer grew to %d bytes for a refused frame", cap(buf))
	}
}

// startServer spins up a server on an ephemeral port and returns its
// address and a shutdown function.
func startServer(t *testing.T, opts core.Options) (string, *Server, func()) {
	t.Helper()
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
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

// dialBinary connects a client that the test closes on cleanup.
func dialBinary(t *testing.T, addr string) *BinClient {
	t.Helper()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// pointQuery is a point query as swatquery runs one: a one-term
// inner product with weight 1.
func pointQuery(c *BinClient, age int) (float64, error) {
	var v [1]float64
	err := c.QueryBatch([]query.Query{{Ages: []int{age}, Weights: []float64{1}}}, v[:])
	return v[0], err
}

// rangeQuery is a range query as swatquery runs one: the server's
// summary, rebuilt into a local tree that answers it.
func rangeQuery(c *BinClient, center, radius float64, from, to int) ([]core.RangeMatch, error) {
	s, err := c.FetchSummary()
	if err != nil {
		return nil, err
	}
	tr, err := core.FromSummary(s)
	if err != nil {
		return nil, err
	}
	return tr.RangeQuery(center, radius, from, to)
}

func TestServerEndToEnd(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 32})
	defer shutdown()
	c := dialBinary(t, addr)

	shadow, _ := stream.NewWindow(32)
	src := stream.RandomWalk(4, 50, 2, 0, 100)
	for i := 0; i < 96; i++ {
		v := src.Next()
		shadow.Push(v)
		if err := c.FeedBatch([]float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	st := waitArrivals(t, c, 96)
	if !st.Ready || st.Window != 32 || st.Nodes != 13 {
		t.Errorf("stats = %+v", st)
	}

	q, _ := query.New(query.Exponential, 0, 8, 0)
	got := make([]float64, 1)
	if err := c.QueryBatch([]query.Query{q}, got); err != nil {
		t.Fatal(err)
	}
	exact, _ := query.Exact(shadow, q)
	if math.Abs(got[0]-exact) > 0.25*math.Abs(exact)+1 {
		t.Errorf("query = %v, exact = %v", got[0], exact)
	}

	p, err := pointQuery(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-shadow.MustAt(0)) > 30 {
		t.Errorf("point = %v, true = %v", p, shadow.MustAt(0))
	}

	matches, err := rangeQuery(c, 50, 100, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 32 {
		t.Errorf("all-covering range matched %d of 32", len(matches))
	}
}

func TestServerErrorResponses(t *testing.T) {
	addr, _, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	c := dialBinary(t, addr)

	// Query on a cold tree: refused, connection kept.
	var remote *RemoteError
	if _, err := pointQuery(c, 0); !errors.As(err, &remote) {
		t.Errorf("cold-tree query err = %v, want a server refusal", err)
	}
	// Out-of-window point.
	if err := c.FeedBatch(make([]float64, 16)); err != nil {
		t.Fatal(err)
	}
	waitArrivals(t, c, 16)
	if _, err := pointQuery(c, 99); !errors.As(err, &remote) {
		t.Errorf("out-of-window point err = %v, want a server refusal", err)
	}
	// Unknown frame type: an error frame naming the problem, then the
	// connection is dropped.
	c.wbuf = codec.AppendFrame(c.wbuf[:0], []byte{0x7E})
	if _, err := c.roundTripBin(); !errors.As(err, &remote) || !strings.Contains(remote.Msg, "unknown binary frame type") {
		t.Errorf("bogus frame type err = %v", err)
	}
	if _, err := c.Ping(); err == nil {
		t.Error("connection survived a bogus frame type")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	addr, srv, shutdown := startServer(t, core.Options{WindowSize: 64})
	defer shutdown()
	// Warm the tree server-side.
	src := stream.Uniform(8)
	for i := 0; i < 128; i++ {
		srv.Feed(src.Next())
	}
	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := DialBinary(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				if _, err := pointQuery(c, j%64); err != nil {
					errs <- err
					return
				}
				if err := c.FeedBatch([]float64{float64(id*100 + j)}); err != nil {
					errs <- err
					return
				}
			}
			if _, err := c.Ping(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitArrivals(t, dialBinary(t, addr), 128+clients*perClient)
}

// TestValueZeroAndAgeZeroEndToEnd drives the two zero-valued requests
// through a live server: feeding the value 0 must count as an arrival,
// and a point query at age 0 must return the tree's own answer.
func TestValueZeroAndAgeZeroEndToEnd(t *testing.T) {
	addr, srv, shutdown := startServer(t, core.Options{WindowSize: 16})
	defer shutdown()
	c := dialBinary(t, addr)
	vals := make([]float64, 17)
	for i := 0; i < 16; i++ {
		vals[i] = 5
	}
	if err := c.FeedBatch(vals); err != nil { // ends with the value 0
		t.Fatal(err)
	}
	waitArrivals(t, c, 17)
	got, err := pointQuery(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.def.tree.PointQuery(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("point(0) over the wire = %v, direct = %v", got, want)
	}
	// The summary must have absorbed the value-0 arrival: the newest
	// value's estimate reflects 0, not another 5.
	if got == 5 {
		t.Error("point(0) ignored the value-0 arrival")
	}
}

func TestServeBeforeListen(t *testing.T) {
	srv, err := NewServer(core.Options{WindowSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err == nil {
		t.Error("Serve before Listen succeeded")
	}
}

// TestNewServerGeometry pins that the default stream of the monitor
// NewServer builds has exactly core.New's geometry — core defaults k to
// 1 where multi defaults it to 4 — in what the server reports and
// ships.
func TestNewServerGeometry(t *testing.T) {
	opts := core.Options{WindowSize: 16}
	addr, _, shutdown := startServer(t, opts)
	defer shutdown()
	c := dialBinary(t, addr)
	twin, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(i % 7)
	}
	twin.UpdateBatch(vals)
	if err := c.FeedBatch(vals); err != nil {
		t.Fatal(err)
	}
	st := waitArrivals(t, c, int64(len(vals)))
	if st.Nodes != twin.NumNodes() || st.Window != twin.WindowSize() {
		t.Errorf("stats report %d nodes over N=%d, core.New gives %d over N=%d", st.Nodes, st.Window, twin.NumNodes(), twin.WindowSize())
	}
	sum, err := c.FetchSummary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Coefficients != twin.Coefficients() || !bytes.Equal(encodedSummary(t, sum), twin.AppendSummary(nil)) {
		t.Errorf("summary has k=%d and differs from core.New's twin (k=%d)", sum.Coefficients, twin.Coefficients())
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(core.Options{WindowSize: 3}); err == nil {
		t.Error("invalid tree options accepted")
	}
}
