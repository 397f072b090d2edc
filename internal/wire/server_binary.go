package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
)

// binConn is one v2 connection's reusable state: frame read/write
// buffers and query scratch grown to their high-water marks, plus the
// connection's data-sequence cursor.
type binConn struct {
	conn net.Conn
	// br buffers the read side: raw frame reads would cost two
	// syscalls per frame (header + body), which dominates small-batch
	// ingest. One buffer per connection, allocated at accept time.
	br   *bufio.Reader
	rbuf []byte
	wbuf []byte
	q    binQueryScratch

	// expect is the firstIndex the next data frame must carry; started
	// latches after the first data frame fixes the origin.
	expect  uint64
	started bool

	// One-slot stream-resolution cache (see server_streams.go):
	// consecutive stream frames usually target the same stream, so the
	// server-wide map plus its lock is off the steady-state path.
	sname   []byte
	shandle streamHandle
	scached bool

	// Export-side summary-transfer snapshot (see migrate.go): the
	// stream being served to a migration driver, pinned so successive
	// migRead chunks come from one consistent encoding. Per connection,
	// not per server — a reconnecting driver re-snapshots, and the CRC
	// fence decides whether its resume offset is still valid.
	expName []byte
	exp     *core.SummaryTransfer

	// sub is the connection's standing-query state once it has
	// subscribed (see subscribe.go), nil before.
	sub *subscriber
}

// handleBinary serves one v2 connection after its magic has been
// consumed: hello/helloAck handshake, then the frame loop. Malformed
// frames are answered with an error frame and drop the connection —
// once framing is untrustworthy nothing after it is worth parsing.
func (s *Server) handleBinary(conn net.Conn) {
	s.lnMu.Lock()
	s.startIngestLocked() // tests may drive a handler without Listen
	s.lnMu.Unlock()
	bc := &binConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	body, rbuf, err := readBinFrame(bc.br, bc.rbuf)
	bc.rbuf = rbuf
	if err != nil || len(body) != 2 || body[0] != bfHello {
		s.Logf("wire: %v: bad v2 hello: %v", conn.RemoteAddr(), err)
		return
	}
	if body[1] != binVersion {
		s.binError(bc, fmt.Errorf("unsupported protocol version %d", body[1]))
		return
	}
	bc.wbuf = appendHelloAckFrame(bc.wbuf[:0], s.Policy, cap(s.ingest.ch))
	if err := s.binWrite(bc); err != nil {
		s.Logf("wire: %v: %v", conn.RemoteAddr(), err)
		return
	}
	for {
		body, rbuf, err := readBinFrame(bc.br, bc.rbuf)
		bc.rbuf = rbuf
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.Logf("wire: %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if err := s.dispatchBinary(bc, body); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.Logf("wire: %v: %v", conn.RemoteAddr(), err)
				s.binError(bc, err)
			}
			return
		}
	}
}

// dispatchBinary executes one v2 frame. A returned error is fatal to
// the connection.
//
//swat:noalloc
func (s *Server) dispatchBinary(bc *binConn, body []byte) error {
	if len(body) == 0 {
		return errFrameTruncated
	}
	switch body[0] {
	case bfData:
		return s.handleData(bc, body[1:])
	case bfQuery:
		return s.handleQueryBatch(bc, body[1:])
	case bfStats:
		bc.wbuf = appendStatsResFrame(bc.wbuf[:0], s.statsV2())
		return s.binWrite(bc)
	case bfSumReq:
		if len(body) != 1 {
			return errFrameTruncated
		}
		bc.wbuf = codec.Begin(bc.wbuf[:0])
		bc.wbuf = append(bc.wbuf, bfSumRes)
		bc.wbuf = s.def.tree.AppendSummary(bc.wbuf)
		if len(bc.wbuf)-codec.HeaderLen > MaxFrame {
			// A summary outgrows MaxFrame only under extreme geometry
			// (a raw ring of >128Ki entries); soft-fail like a cold
			// query rather than shipping a frame the peer must reject.
			s.binError(bc, errSummaryLarge)
			return nil
		}
		bc.wbuf = codec.Finish(bc.wbuf, 0)
		return s.binWrite(bc)
	case bfSData:
		return s.handleStreamData(bc, body[1:])
	case bfSPoint:
		return s.handleStreamPoints(bc, body[1:])
	case bfSSum:
		return s.handleStreamSummary(bc, body[1:])
	case bfSFold:
		return s.handleStreamFold(bc, body[1:])
	case bfPing:
		if len(body) != 9 {
			return errFrameTruncated
		}
		bc.wbuf = appendU64Frame(bc.wbuf[:0], bfPong, binary.BigEndian.Uint64(body[1:]))
		return s.binWrite(bc)
	case bfEpoch:
		return s.handleEpoch(bc, body[1:])
	case bfMigRead:
		return s.handleMigRead(bc, body[1:])
	case bfMigWrite:
		return s.handleMigWrite(bc, body[1:])
	case bfMigStat:
		return s.handleMigStat(bc, body[1:])
	case bfMigCommit:
		return s.handleMigCommit(bc, body[1:])
	case bfSubscribe:
		return s.handleSubscribe(bc, body[1:])
	default:
		return errFrameType
	}
}

// handleData decodes one data frame into a recycled batch and hands it
// to the ingest queue under the server's backpressure policy. No
// response frame: the data plane is one-way.
//
//swat:noalloc
func (s *Server) handleData(bc *binConn, payload []byte) error {
	b := s.ingest.get()
	first, vals, err := decodeDataFrame(payload, b.vals[:0])
	if err != nil {
		s.ingest.put(b)
		return err
	}
	b.vals = vals
	if bc.started && first != bc.expect {
		s.ingest.put(b)
		return errBatchSequence
	}
	bc.started = true
	bc.expect = first + uint64(len(vals))
	b.ref = s.def.ref
	s.ingest.offer(b, s.Policy)
	return nil
}

// handleQueryBatch answers one batched-query frame under a single tree
// read-lock acquisition. Query evaluation failures (cold tree, bad
// ages) are soft: the client gets an error frame and the connection
// lives on.
//
//swat:noalloc
func (s *Server) handleQueryBatch(bc *binConn, payload []byte) error {
	if err := decodeQueryFrame(payload, &bc.q); err != nil {
		return err
	}
	n := len(bc.q.qs)
	if cap(bc.q.answers) < n {
		bc.q.answers = make([]float64, n)
	}
	dst := bc.q.answers[:n]
	if err := s.def.tree.AnswerBatch(dst, bc.q.qs); err != nil {
		s.binError(bc, err)
		return nil
	}
	bc.wbuf = appendAnswerFrame(bc.wbuf[:0], dst)
	return s.binWrite(bc)
}

// statsV2 assembles the v2 stats frame payload: the default stream's
// counters plus the ingest queue's backpressure accounting.
func (s *Server) statsV2() StatsV2 {
	return StatsV2{
		Arrivals:       s.def.tree.Arrivals(),
		Window:         s.def.tree.WindowSize(),
		Nodes:          s.def.tree.NumNodes(),
		Ready:          s.def.tree.Ready(),
		Policy:         s.Policy,
		QueueCap:       cap(s.ingest.ch),
		QueueLen:       len(s.ingest.ch),
		EnqueuedValues: s.ingest.enqueued.Load(),
		ShedValues:     s.ingest.shed.Load(),
		IngestErrors:   s.ingest.errs.Load(),
		Epoch:          s.epoch.Load(),
		EpochRefusals:  s.epochRefusals.Load(),
	}
}

// binError pushes an error frame, best-effort.
func (s *Server) binError(bc *binConn, err error) {
	bc.wbuf = appendErrorFrame(bc.wbuf[:0], err.Error())
	if werr := s.binWrite(bc); werr != nil {
		s.Logf("wire: %v: %v", bc.conn.RemoteAddr(), werr)
	}
}

// binWrite sends the reply frame assembled in bc.wbuf under the
// server's write deadline. On a subscribed connection it holds the
// subscriber lock, so a reply cannot interleave with a notify push.
func (s *Server) binWrite(bc *binConn) error {
	if bc.sub != nil {
		bc.sub.mu.Lock()
		defer bc.sub.mu.Unlock()
	}
	bc.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
	_, err := bc.conn.Write(bc.wbuf)
	return err
}
