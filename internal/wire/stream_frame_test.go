package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/multi"
	"github.com/streamsum/swat/internal/stream"
)

// TestStreamFrameRoundTrips pins the stream-addressed frame codecs:
// encode → frame-split → decode reproduces names and payloads exactly.
func TestStreamFrameRoundTrips(t *testing.T) {
	vals := []float64{1.5, -2.25, 0, 3e9}
	frame := appendStreamDataFrame(nil, "cpu.load", 3, vals)
	body := frame[codec.HeaderLen:]
	if body[0] != bfSData {
		t.Fatalf("data frame type = %#x, want bfSData", body[0])
	}
	name, epoch, got, err := decodeStreamDataFrame(body[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(name) != "cpu.load" {
		t.Errorf("name = %q", name)
	}
	if epoch != 3 {
		t.Errorf("epoch = %d, want 3", epoch)
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("value %d = %v, want %v", i, got[i], vals[i])
		}
	}

	q := appendStreamPointsFrame(nil, 9, 7, []string{"cpu.load", "mem"})
	qepoch, age, n, names, err := decodeStreamPointsFrame(q[codec.HeaderLen+1:])
	if err != nil {
		t.Fatal(err)
	}
	first, rest, _ := splitStreamName(names)
	second, _, _ := splitStreamName(rest)
	if qepoch != 9 || age != 7 || n != 2 || string(first) != "cpu.load" || string(second) != "mem" {
		t.Errorf("spoint decoded as (%d, %d, %d, %q, %q)", qepoch, age, n, first, second)
	}

	long := strings.Repeat("m", 2*maxRefusalMsg)
	a := beginStreamPointsRes(nil, 2)
	a = appendStreamPointOK(a, 3.5, 0.25, 42)
	a = codec.Finish(appendRefusal(a, long), 0)
	res := make([]StreamPointResult, 2)
	if err := decodeStreamPointsRes(a[codec.HeaderLen+1:], res); err != nil {
		t.Fatal(err)
	}
	if r := res[0]; r.Err != nil || r.Value != 3.5 || r.Bound != 0.25 || r.Arrivals != 42 {
		t.Errorf("answer decoded as %+v", r)
	}
	var remote *RemoteError
	if !errors.As(res[1].Err, &remote) || remote.Msg != long[:maxRefusalMsg] {
		t.Errorf("refusal decoded as %v, want a RemoteError cut to %d bytes", res[1].Err, maxRefusalMsg)
	}
}

// TestStreamPointsFit pins the client's frame split: a request splits
// exactly when the next name would push the request, or its worst-case
// reply, past MaxFrame.
func TestStreamPointsFit(t *testing.T) {
	long := strings.Repeat("n", maxStreamName)
	perFrame := (MaxFrame - spointHdr) / (2 + maxStreamName)
	names := make([]string, perFrame+1)
	for i := range names {
		names[i] = long
	}
	if got := spointFit(names); got != perFrame {
		t.Fatalf("long names: %d fit one frame, want %d", got, perFrame)
	}
	if got := len(appendStreamPointsFrame(nil, 1, 0, names[:perFrame])) - codec.HeaderLen; got > MaxFrame {
		t.Fatalf("a full spoint frame is %d bytes, over MaxFrame", got)
	}
	byReply := (MaxFrame - spointResHdr) / spointEntryMax
	short := make([]string, byReply+1)
	for i := range short {
		short[i] = "s"
	}
	if got := spointFit(short); got != byReply {
		t.Fatalf("short names: %d fit one frame, want %d (reply-bound)", got, byReply)
	}
}

func TestStreamFrameDecodeErrors(t *testing.T) {
	if _, _, _, err := decodeStreamDataFrame([]byte{0xFF}, nil); err == nil {
		t.Error("truncated epoch accepted")
	}
	if _, _, _, err := decodeStreamDataFrame(append(make([]byte, 8), 0, 4, 'a'), nil); err == nil {
		t.Error("name longer than payload accepted")
	}
	// A 12-byte tail is not a whole float64.
	bad := appendStreamDataFrame(nil, "s", 0, []float64{1})[codec.HeaderLen+1:]
	if _, _, _, err := decodeStreamDataFrame(bad[:len(bad)-4], nil); err == nil {
		t.Error("ragged value payload accepted")
	}
	if _, _, _, _, err := decodeStreamPointsFrame(append(make([]byte, 8), 0, 0, 0, 1)); err == nil {
		t.Error("spoint without a count accepted")
	}
	// A count the payload cannot hold is refused before the walk.
	hostile := append(make([]byte, 12), 0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 's')
	if _, _, _, _, err := decodeStreamPointsFrame(hostile); err == nil {
		t.Error("spoint with a hostile count accepted")
	}
	// More names than a reply frame could answer in the worst case.
	short := make([]string, (MaxFrame-spointResHdr)/spointEntryMax+1)
	for i := range short {
		short[i] = "s"
	}
	if _, _, _, _, err := decodeStreamPointsFrame(appendStreamPointsFrame(nil, 0, 0, short)[codec.HeaderLen+1:]); err == nil {
		t.Error("spoint whose reply could outgrow MaxFrame accepted")
	}
	// Trailing bytes after the last name.
	sp := appendStreamPointsFrame(nil, 0, 0, []string{"s"})[codec.HeaderLen+1:]
	if _, _, _, _, err := decodeStreamPointsFrame(append(sp, 0)); err == nil {
		t.Error("spoint with trailing bytes accepted")
	}
	ok := beginStreamPointsRes(nil, 1)[codec.HeaderLen+1:]
	ok = appendStreamPointOK(ok, 1, 0, 1)
	if err := decodeStreamPointsRes(ok[:len(ok)-1], make([]StreamPointResult, 1)); err == nil {
		t.Error("short answer accepted")
	}
	if err := decodeStreamPointsRes(ok, make([]StreamPointResult, 2)); err == nil {
		t.Error("answer count mismatch accepted")
	}
	status := append([]byte(nil), ok...)
	status[4] = 2 // neither answered nor refused
	if err := decodeStreamPointsRes(status, make([]StreamPointResult, 1)); err == nil {
		t.Error("unknown entry status accepted")
	}
}

// startStreamServer starts a v2 server backed by a multi-stream
// monitor.
func startStreamServer(t *testing.T, opts multi.Options) (string, *multi.Monitor, func()) {
	t.Helper()
	mon, err := multi.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, down := startServerWithMonitor(t, opts, mon)
	return addr, mon, func() {
		down()
		if err := mon.Close(); err != nil {
			t.Errorf("monitor close: %v", err)
		}
	}
}

func startServerWithMonitor(t *testing.T, opts multi.Options, mon *multi.Monitor) (string, *Server, func()) {
	t.Helper()
	srv, err := NewServer(core.Options{WindowSize: opts.WindowSize, Coefficients: opts.Coefficients, MinLevel: opts.MinLevel})
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	if err := srv.UseMonitor(mon); err != nil {
		t.Fatal(err)
	}
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

// waitStreamArrivals polls the monitor until a stream's tree has
// applied want arrivals (the stream data plane is one-way).
func waitStreamArrivals(t *testing.T, mon *multi.Monitor, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr, err := mon.Tree(name)
		if err == nil && tr.Arrivals() >= want {
			if got := tr.Arrivals(); got > want {
				t.Fatalf("stream %q at %d arrivals, want %d", name, got, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream %q never reached %d arrivals (err=%v)", name, want, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamIngestAndQuery drives the stream-addressed plane end to
// end: interleaved FeedStream batches for two streams auto-register
// them on the server, per-stream point queries answer from the right
// tree, and fetched per-stream summaries reproduce the server trees.
func TestStreamIngestAndQuery(t *testing.T) {
	addr, mon, shutdown := startStreamServer(t, multi.Options{WindowSize: 32, Coefficients: 4, MinLevel: 2})
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const count = 64
	feeds := map[string][]float64{"alpha": nil, "beta": nil}
	srcA := stream.UniformRange(5, 0, 1)
	srcB := stream.UniformRange(6, 100, 200)
	for i := 0; i < count; i += 8 {
		a := make([]float64, 8)
		b := make([]float64, 8)
		for j := range a {
			a[j] = srcA.Next()
			b[j] = srcB.Next()
		}
		feeds["alpha"] = append(feeds["alpha"], a...)
		feeds["beta"] = append(feeds["beta"], b...)
		if err := c.FeedStream("alpha", a); err != nil {
			t.Fatal(err)
		}
		if err := c.FeedStream("beta", b); err != nil {
			t.Fatal(err)
		}
	}
	// Stream data frames are write-buffered; a round trip flushes them
	// (the cluster client's Sync does the same).
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	waitStreamArrivals(t, mon, "alpha", count)
	waitStreamArrivals(t, mon, "beta", count)

	for name := range feeds {
		v, bound, arrivals, err := c.StreamPoint(name, 0)
		if err != nil {
			t.Fatalf("point %q: %v", name, err)
		}
		if arrivals != count {
			t.Errorf("stream %q arrivals = %d, want %d", name, arrivals, count)
		}
		if bound != 0 {
			t.Errorf("stream %q bound = %v, want 0 (untainted tree)", name, bound)
		}
		// The remote answer must mirror the server tree's own. The two
		// streams' trees hold different data, so matching each proves
		// queries route to the right tree.
		serverTree, err := mon.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		sv0, sb0, err := serverTree.BoundedPoint(0)
		if err != nil {
			t.Fatal(err)
		}
		if v != sv0 || bound != sb0 {
			t.Errorf("stream %q remote point(0) = (%v, %v), server tree says (%v, %v)", name, v, bound, sv0, sb0)
		}

		sum, err := c.FetchStreamSummary(name)
		if err != nil {
			t.Fatalf("summary %q: %v", name, err)
		}
		tr, err := mon.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Arrivals != count {
			t.Errorf("stream %q summary at %d arrivals, want %d", name, sum.Arrivals, count)
		}
		restored, err := core.FromSummary(sum)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := restored.PointQuery(0)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := tr.PointQuery(0)
		if err != nil {
			t.Fatal(err)
		}
		if rv != sv {
			t.Errorf("stream %q restored summary answers %v, server tree %v", name, rv, sv)
		}
	}
}

// TestStreamQueryErrors pins the soft-error paths: querying an
// unregistered stream, on a caller's monitor or on the one NewServer
// built, returns a RemoteError on that request while the connection
// keeps serving.
func TestStreamQueryErrors(t *testing.T) {
	addr, _, shutdown := startStreamServer(t, multi.Options{WindowSize: 16})
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, _, _, err = c.StreamPoint("ghost", 0)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("unknown-stream point error = %v, want RemoteError", err)
	}
	if _, err := c.FetchStreamSummary("ghost"); !errors.As(err, &re) {
		t.Fatalf("unknown-stream summary error = %v, want RemoteError", err)
	}
	// The connection survived the refusals.
	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping after soft errors: %v", err)
	}

	// A server on the monitor NewServer built refuses unknown streams
	// softly too.
	plainAddr, _, plainDown := startServer(t, core.Options{WindowSize: 16})
	defer plainDown()
	pc, err := DialBinary(plainAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	_, _, _, nmErr := pc.StreamPoint("any", 0)
	if !errors.As(nmErr, &re) {
		t.Fatalf("plain-server point error = %v, want RemoteError", nmErr)
	}
	if !strings.Contains(nmErr.Error(), "stream") {
		t.Errorf("plain-server error %q does not mention streams", nmErr)
	}
}

// TestDefaultStreamIsolated pins that no stream frame reaches the
// default stream: sdata, spoint, sfold and ssum naming "" are malformed
// (fatal to the connection) and leave the default stream untouched,
// while the unnamed data frames keep their sequence check.
func TestDefaultStreamIsolated(t *testing.T) {
	dispatching := func(t *testing.T) *Server {
		srv, err := NewServer(core.Options{WindowSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		srv.Logf = t.Logf
		srv.lnMu.Lock()
		srv.startIngestLocked()
		srv.lnMu.Unlock()
		return srv
	}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"sdata", appendStreamDataFrame(nil, "", 0, []float64{1, 2})},
		{"spoint", appendStreamPointsFrame(nil, 0, 0, []string{""})},
		{"sfold", appendStreamFoldFrame(nil, 0, core.MergeOptions{ValueHi: 100}, []string{""}, []int64{20})},
		{"ssum", appendStreamSumFrame(nil, "", 0)},
	} {
		srv := dispatching(t)
		for i := 0; i < 20; i++ {
			srv.Feed(float64(i))
		}
		before := srv.def.tree.AppendSummary(nil)
		err := srv.dispatchBinary(&binConn{conn: nopConn{}}, tc.frame[codec.HeaderLen:])
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err == nil {
			t.Errorf("%s naming the default stream was not refused as malformed", tc.name)
		}
		if !bytes.Equal(srv.def.tree.AppendSummary(nil), before) {
			t.Errorf("%s naming the default stream changed it", tc.name)
		}
		if got := srv.Monitor().Streams(); len(got) != 1 || got[0] != "" {
			t.Errorf("%s naming the default stream left streams %q, want only the default", tc.name, got)
		}
	}

	srv := dispatching(t)
	defer srv.Close()
	bc := &binConn{conn: nopConn{}}
	for _, step := range []struct {
		first uint64
		want  error
	}{{0, nil}, {4, nil}, {9, errBatchSequence}} {
		frame := appendDataFrame(nil, step.first, []float64{1, 2, 3, 4})
		if err := srv.dispatchBinary(bc, frame[codec.HeaderLen:]); !errors.Is(err, step.want) {
			t.Errorf("data frame at %d: err = %v, want %v", step.first, err, step.want)
		}
	}
}

// TestStreamPointsBatch pins the batched point semantics over a
// socket: each entry answers exactly like its one-stream query, an
// unknown or cold stream refuses only its own entry, and a stale epoch
// refuses every entry while the connection lives on.
func TestStreamPointsBatch(t *testing.T) {
	// MinLevel 2: three values build no node, so "cold" stays cold.
	addr, mon, shutdown := startStreamServer(t, multi.Options{WindowSize: 16, MinLevel: 2})
	defer shutdown()
	feedWarm(t, addr, mon, "alpha", 40)
	feedWarm(t, addr, mon, "beta", 20)
	feedWarm(t, addr, mon, "cold", 3)
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	names := []string{"alpha", "ghost", "beta", "cold"}
	res := make([]StreamPointResult, len(names))
	if err := c.StreamPoints(names, 2, res); err != nil {
		t.Fatal(err)
	}
	var remote *RemoteError
	for i, name := range names {
		v, b, arr, err := c.StreamPoint(name, 2)
		switch r := res[i]; name {
		case "ghost", "cold":
			if !errors.As(r.Err, &remote) || !errors.As(err, &remote) {
				t.Errorf("%s: batch %v, single %v; want refusals", name, r.Err, err)
			}
		default:
			if r.Err != nil || err != nil || r.Value != v || r.Bound != b || r.Arrivals != arr {
				t.Errorf("%s: batch %+v, single (%v, %v, %d, %v)", name, r, v, b, arr, err)
			}
		}
	}

	ctl, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if _, err := ctl.SetRingEpoch(5); err != nil {
		t.Fatal(err)
	}
	c.SetEpoch(4)
	if err := c.StreamPoints(names, 2, res); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.As(r.Err, &remote) || !strings.Contains(r.Err.Error(), "epoch") {
			t.Errorf("stale batch entry %q: %v, want an epoch refusal", names[i], r.Err)
		}
	}
	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping after a stale batch: %v", err)
	}
}

// TestFeedStreamNameLimit rejects unframeable names client-side.
func TestFeedStreamNameLimit(t *testing.T) {
	addr, _, shutdown := startStreamServer(t, multi.Options{WindowSize: 16})
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	long := strings.Repeat("x", maxStreamName+1)
	if err := c.FeedStream(long, []float64{1}); err == nil {
		t.Error("oversized stream name accepted")
	}
	if err := c.FeedStream("", []float64{1}); err == nil {
		t.Error("empty stream name accepted")
	}
}

// TestFeedStreamSplitsBigBatches feeds one batch larger than a frame
// can carry: the client must split transparently and every value must
// arrive, in order.
func TestFeedStreamSplitsBigBatches(t *testing.T) {
	addr, mon, shutdown := startStreamServer(t, multi.Options{WindowSize: 16, MinLevel: 2})
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	limit := streamBatchLimit("big")
	vals := make([]float64, limit+1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := c.FeedStream("big", vals); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	waitStreamArrivals(t, mon, "big", int64(len(vals)))
	// Bit-identity of the canonical summary with a local twin fed the
	// same values proves every value arrived, exactly once, in order.
	sum, err := c.FetchStreamSummary("big")
	if err != nil {
		t.Fatal(err)
	}
	twin, err := core.New(core.Options{WindowSize: 16, MinLevel: 2, Coefficients: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		twin.Update(v)
	}
	restored, err := core.FromSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	if string(restored.AppendSummary(nil)) != string(twin.AppendSummary(nil)) {
		t.Error("summary after split differs from a twin fed the same values (order or completeness lost)")
	}
}
