package wire

// AllocsPerRun guards for the v2 binary plane: the dynamic counterpart
// of every //swat:noalloc annotation in this package (swatlint's
// noalloc analyzer cross-checks that each annotated function is
// mentioned here). Steady state means buffers, scratch, and batch
// free-lists have grown to their high-water marks; each guard warms
// first, then pins 0 allocs/op.

import (
	"bufio"
	"bytes"
	"testing"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
)

// replayConn serves the same pre-baked response bytes for every frame
// read, discarding writes — a loopback server for client guards.
type replayConn struct {
	nopConn
	resp []byte
	off  int
}

func (c *replayConn) Read(p []byte) (int, error) {
	if c.off == len(c.resp) {
		c.off = 0
	}
	n := copy(p, c.resp[c.off:])
	c.off += n
	return n, nil
}

// TestBinaryCodecDoesNotAllocate pins the pure encode/decode layer:
// readBinFrame, appendDataFrame, decodeDataFrame, appendQueryTerms,
// appendQueryFrame, decodeQueryFrame, appendAnswerFrame, decodeAnswerFrame,
// appendStatsResFrame, and appendU64Frame.
func TestBinaryCodecDoesNotAllocate(t *testing.T) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	qs := []query.Query{
		{Ages: []int{0, 1, 2, 3}, Weights: []float64{1, 0.5, 0.25, 0.125}},
		{Ages: []int{7, 9}, Weights: []float64{-1, 2}},
	}
	st := StatsV2{Arrivals: 1, Window: 32, Nodes: 13, Ready: true, QueueCap: 4}

	var frame, rbuf []byte
	var decVals []float64
	answers := make([]float64, len(qs))
	var sc binQueryScratch
	r := bytes.NewReader(nil)

	run := func() error {
		frame = appendDataFrame(frame[:0], 7, vals)
		r.Reset(frame)
		body, nb, err := readBinFrame(r, rbuf)
		rbuf = nb
		if err != nil {
			return err
		}
		var first uint64
		first, decVals, err = decodeDataFrame(body[1:], decVals[:0])
		if err != nil || first != 7 || len(decVals) != len(vals) {
			return errFrameLength
		}

		frame = appendQueryTerms(frame[:0], qs) // the payload subscribe frames share
		frame = appendQueryFrame(frame[:0], qs)
		body, _, err = codec.Next(frame, MaxFrame)
		if err != nil {
			return err
		}
		if err := decodeQueryFrame(body[1:], &sc); err != nil {
			return err
		}

		frame = appendAnswerFrame(frame[:0], answers)
		body, _, err = codec.Next(frame, MaxFrame)
		if err != nil {
			return err
		}
		if err := decodeAnswerFrame(body[1:], answers); err != nil {
			return err
		}

		frame = appendStatsResFrame(frame[:0], st)
		frame = appendU64Frame(frame[:0], bfPing, 42)
		return nil
	}
	// Warm buffers and scratch to their high-water marks.
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
		t.Errorf("binary codec allocates %v times per cycle, want 0", allocs)
	}
}

// TestIngestQueueDoesNotAllocate pins the free-list round trip: get,
// offer (shed path included), and put recycle one batch with no
// allocation once the list is primed.
func TestIngestQueueDoesNotAllocate(t *testing.T) {
	q := newIngestQueue(1)
	// Prime: the first get allocates the batch, the first offer parks it
	// in the queue, the shed path recycles through the free list.
	for i := 0; i < 3; i++ {
		b := q.get()
		b.vals = append(b.vals[:0], 1, 2, 3)
		q.offer(b, IngestShed)
	}
	allocs := testing.AllocsPerRun(200, func() {
		b := q.get()
		b.vals = append(b.vals[:0], 1, 2, 3)
		if !q.offer(b, IngestShed) {
			// Full queue: offer shed and recycled b via put already.
			return
		}
		q.put(<-q.ch)
	})
	if allocs != 0 {
		t.Errorf("ingest queue allocates %v times per batch, want 0", allocs)
	}
}

// TestServerBinaryHandlersDoNotAllocate pins the server's frame
// dispatch: dispatchBinary routing data (handleData), query
// (handleQueryBatch), stats, and ping frames end to end through a
// stalled ingest worker, all on reused connection state.
func TestServerBinaryHandlersDoNotAllocate(t *testing.T) {
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
	srv.lnMu.Lock()
	srv.startIngestLocked()
	srv.lnMu.Unlock()

	src := stream.Uniform(3)
	for i := 0; i < 96; i++ {
		if err := srv.Feed(src.Next()); err != nil {
			t.Fatal(err)
		}
	}

	vals := make([]float64, 32)
	for i := range vals {
		vals[i] = float64(i)
	}
	dataBody, _, err := codec.Next(appendDataFrame(nil, 0, vals), MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := query.New(query.Exponential, 0, 8, 0)
	q2, _ := query.New(query.Linear, 0, 16, 0)
	queryBody, _, err := codec.Next(appendQueryFrame(nil, []query.Query{q1, q2}), MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	statsBody := []byte{bfStats}
	pingBody, _, err := codec.Next(appendU64Frame(nil, bfPing, 99), MaxFrame)
	if err != nil {
		t.Fatal(err)
	}

	bc := &binConn{conn: nopConn{}}
	// Stall the worker so the 1-slot queue fills and handleData settles
	// into the deterministic shed-and-recycle cycle.
	srv.mu.Lock()
	run := func() error {
		bc.started = false // same firstIndex every run
		if err := srv.handleData(bc, dataBody[1:]); err != nil {
			return err
		}
		if err := srv.handleQueryBatch(bc, queryBody[1:]); err != nil {
			return err
		}
		if err := srv.dispatchBinary(bc, statsBody); err != nil {
			return err
		}
		return srv.dispatchBinary(bc, pingBody)
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
		t.Errorf("binary handlers allocate %v times per cycle, want 0", allocs)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBinClientDoesNotAllocate pins the client side: FeedBatch's
// one-way sends and QueryBatch's round trip (roundTripBin) against a
// replayed answer frame.
func TestBinClientDoesNotAllocate(t *testing.T) {
	feed := &BinClient{conn: nopConn{}, bw: bufio.NewWriterSize(nopConn{}, 64<<10)}
	vals := make([]float64, 48)
	for i := range vals {
		vals[i] = float64(i)
	}
	if err := feed.FeedBatch(vals); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := feed.FeedBatch(vals); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FeedBatch allocates %v times per batch, want 0", allocs)
	}

	qs := []query.Query{{Ages: []int{0, 1}, Weights: []float64{1, 0.5}}}
	dst := make([]float64, 1)
	rc := &replayConn{resp: appendAnswerFrame(nil, []float64{2.5})}
	qc := &BinClient{conn: rc, bw: bufio.NewWriterSize(rc, 64<<10)}
	if err := qc.QueryBatch(qs, dst); err != nil {
		t.Fatal(err)
	}
	//lint:allow sentinelcheck guard reference: ties the alloc budget to roundTripBin's identity
	_ = (*BinClient).roundTripBin // guarded through QueryBatch's round trip
	var fail error
	allocs = testing.AllocsPerRun(200, func() {
		if err := qc.QueryBatch(qs, dst); err != nil {
			fail = err
		}
	})
	if fail != nil {
		t.Fatal(fail)
	}
	if allocs != 0 {
		t.Errorf("QueryBatch allocates %v times per batch, want 0", allocs)
	}
	if dst[0] != 2.5 {
		t.Errorf("answer = %v", dst[0])
	}
}
