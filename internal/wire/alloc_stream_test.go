package wire

// AllocsPerRun guards for the stream-addressed cluster data plane — the
// dynamic counterpart of the //swat:noalloc annotations in streams.go,
// server_streams.go, BinClient.FeedStream and BinClient.StreamPoints
// (swatlint cross-checks each annotated function is mentioned here).

import (
	"bufio"
	"testing"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/multi"
)

// TestStreamCodecDoesNotAllocate pins the pure stream-frame layer:
// streamBatchLimit, appendStreamName, splitStreamName,
// appendStreamDataFrame, decodeStreamDataFrame, spointFit,
// appendStreamPointsFrame, decodeStreamPointsFrame,
// beginStreamPointsRes, appendStreamPointOK, appendRefusal,
// splitRefusal, decodeStreamPointsRes (answered entries), sfoldFit,
// appendStreamFoldFrame, decodeStreamFoldFrame, splitFoldEntry,
// beginStreamFoldRes, and appendStreamSumFrame.
func TestStreamCodecDoesNotAllocate(t *testing.T) {
	const name = "cpu.load"
	names := []string{name, "mem.free"}
	sent := []int64{64, 65}
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) * 0.25
	}
	var frame, refused []byte
	var decVals []float64
	res := make([]StreamPointResult, len(names))

	run := func() error {
		if streamBatchLimit(name) <= 0 {
			return errFrameLength
		}
		frame = appendStreamName(frame[:0], name)
		if _, _, err := splitStreamName(frame); err != nil {
			return err
		}

		frame = appendStreamDataFrame(frame[:0], name, 1, vals)
		var err error
		_, _, decVals, err = decodeStreamDataFrame(frame[codec.HeaderLen+1:], decVals[:0])
		if err != nil || len(decVals) != len(vals) {
			return errFrameLength
		}

		if spointFit(names) != len(names) {
			return errFrameLength
		}
		frame = appendStreamPointsFrame(frame[:0], 1, 3, names)
		if _, _, _, _, err := decodeStreamPointsFrame(frame[codec.HeaderLen+1:]); err != nil {
			return err
		}

		frame = beginStreamPointsRes(frame[:0], len(names))
		frame = appendStreamPointOK(frame, 1.5, 0.25, 42)
		frame = appendStreamPointOK(frame, 2.5, 0, 43)
		frame = codec.Finish(frame, 0)
		if err := decodeStreamPointsRes(frame[codec.HeaderLen+1:], res); err != nil {
			return err
		}
		refused = appendRefusal(refused[:0], "core: tree not ready")
		if _, _, err := splitRefusal(refused); err != nil {
			return err
		}

		if sfoldFit(names, 4096) != len(names) {
			return errFrameLength
		}
		frame = appendStreamFoldFrame(frame[:0], 1, core.MergeOptions{ValueHi: 1}, names, sent)
		_, _, n, entries, err := decodeStreamFoldFrame(frame[codec.HeaderLen+1:])
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if _, _, entries, err = splitFoldEntry(entries); err != nil {
				return err
			}
		}
		frame = beginStreamFoldRes(frame[:0], len(names))

		frame = appendStreamSumFrame(frame[:0], name, 1)
		return nil
	}
	for i := 0; i < 3; i++ {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	var fail error
	allocs := testing.AllocsPerRun(200, func() {
		if err := run(); err != nil {
			fail = err
		}
	})
	if fail != nil {
		t.Fatal(fail)
	}
	if allocs != 0 {
		t.Errorf("stream codec allocates %v times per cycle, want 0", allocs)
	}
}

// TestFeedStreamDoesNotAllocate pins the client ingest path: FeedStream
// reuses the frame buffer once grown.
func TestFeedStreamDoesNotAllocate(t *testing.T) {
	c := &BinClient{conn: nopConn{}, bw: bufio.NewWriterSize(nopConn{}, 64<<10)}
	vals := make([]float64, 48)
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := c.FeedStream("alpha", vals); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.FeedStream("alpha", vals); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FeedStream allocates %v times per batch, want 0", allocs)
	}
}

// TestStreamPointsDoesNotAllocate pins the client's batched point path:
// StreamPoints (and its streamPointsFrame round trip) into a reused dst
// against a replayed spointRes.
func TestStreamPointsDoesNotAllocate(t *testing.T) {
	names := []string{"alpha", "beta", "gamma"}
	reply := beginStreamPointsRes(nil, len(names))
	for i := range names {
		reply = appendStreamPointOK(reply, float64(i), 0, 64)
	}
	rc := &replayConn{resp: codec.Finish(reply, 0)}
	c := &BinClient{conn: rc, bw: bufio.NewWriterSize(rc, 64<<10)}
	dst := make([]StreamPointResult, len(names))
	if err := c.StreamPoints(names, 0, dst); err != nil {
		t.Fatal(err)
	}
	//lint:allow sentinelcheck guard reference: ties the alloc budget to streamPointsFrame's identity
	_ = (*BinClient).streamPointsFrame // guarded through StreamPoints
	var fail error
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.StreamPoints(names, 0, dst); err != nil {
			fail = err
		}
	})
	if fail != nil {
		t.Fatal(fail)
	}
	if allocs != 0 {
		t.Errorf("StreamPoints allocates %v times per batch, want 0", allocs)
	}
	for i, r := range dst {
		if r.Err != nil || r.Value != float64(i) || r.Arrivals != 64 {
			t.Errorf("dst[%d] = %+v", i, r)
		}
	}
}

// TestStreamHandlersDoNotAllocate pins the server side: resolveStream
// through the connection's one-slot cache, handleStreamData into a
// stalled shed-policy ingest queue, and handleStreamPoints answering a
// multi-stream spoint on a reused write buffer.
func TestStreamHandlersDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; pooled query scratch is not allocation-free there")
	}
	srv, err := NewServer(core.Options{WindowSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	srv.IngestQueue = 1
	srv.Policy = IngestShed
	mon, err := multi.New(multi.Options{WindowSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := mon.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := srv.UseMonitor(mon); err != nil {
		t.Fatal(err)
	}
	srv.lnMu.Lock()
	srv.startIngestLocked()
	srv.lnMu.Unlock()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	// Register and warm the streams so queries answer from a full window.
	names := []string{"alpha", "beta", "gamma"}
	for _, name := range names {
		if err := mon.Add(name); err != nil {
			t.Fatal(err)
		}
		tr, err := mon.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 96; i++ {
			tr.Update(float64(i))
		}
	}

	vals := make([]float64, 32)
	for i := range vals {
		vals[i] = float64(i)
	}
	dataBody, _, err := codec.Next(appendStreamDataFrame(nil, "alpha", 0, vals), MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	pointsBody, _, err := codec.Next(appendStreamPointsFrame(nil, 0, 0, names), MaxFrame)
	if err != nil {
		t.Fatal(err)
	}

	bc := &binConn{conn: nopConn{}}
	//lint:allow sentinelcheck guard reference: ties the alloc budget to resolveStream's identity
	_ = (*binConn).resolveStream // guarded through handleStreamData's cache hits
	// Stall the worker so the 1-slot queue settles into the
	// deterministic shed-and-recycle cycle, as in the default-stream guard.
	srv.mu.Lock()
	run := func() error {
		if err := srv.handleStreamData(bc, dataBody[1:]); err != nil {
			return err
		}
		return srv.handleStreamPoints(bc, pointsBody[1:])
	}
	for i := 0; i < 5; i++ {
		if err := run(); err != nil {
			srv.mu.Unlock()
			t.Fatal(err)
		}
	}
	var fail error
	allocs := testing.AllocsPerRun(100, func() {
		if err := run(); err != nil {
			fail = err
		}
	})
	srv.mu.Unlock()
	if fail != nil {
		t.Fatal(fail)
	}
	if allocs != 0 {
		t.Errorf("stream handlers allocate %v times per cycle, want 0", allocs)
	}
	// The measured replies answered every stream.
	res := make([]StreamPointResult, len(names))
	if err := decodeStreamPointsRes(bc.wbuf[codec.HeaderLen+1:], res); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Errorf("stream %q refused: %v", names[i], r.Err)
		}
	}
}

// TestEpochPathDoesNotAllocate pins the ring-epoch hot path every
// stream-addressed frame crosses: appendEpoch stamping the client
// frame, splitEpoch parsing it back, and the server's epochAdopt /
// epochCheck adopt-forward rule.
func TestEpochPathDoesNotAllocate(t *testing.T) {
	srv, err := NewServer(core.Options{WindowSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	run := func() error {
		buf = appendEpoch(buf[:0], 7)
		e, rest, err := splitEpoch(buf)
		if err != nil || e != 7 || len(rest) != 0 {
			return errFrameLength
		}
		srv.epochAdopt(e)
		return srv.epochCheck(e)
	}
	for i := 0; i < 3; i++ {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	var fail error
	allocs := testing.AllocsPerRun(200, func() {
		if err := run(); err != nil {
			fail = err
		}
	})
	if fail != nil {
		t.Fatal(fail)
	}
	if allocs != 0 {
		t.Errorf("epoch path allocates %v times per cycle, want 0", allocs)
	}
}
