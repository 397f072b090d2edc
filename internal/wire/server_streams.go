package wire

// Server-side support for the stream-addressed cluster data plane: the
// named streams of the server's multi.Monitor behind the v2 socket.
// Stream frames resolve their name to a pre-resolved multi.StreamRef
// (cached per server, with a one-slot per-connection cache in front
// since consecutive frames usually target the same stream), then ride
// the same bounded ingest queue as the default stream's data frames —
// one backpressure policy covers both.

import (
	"bytes"
	"errors"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/multi"
)

// streamHandle is one resolved stream: the 0-alloc ingest ref plus the
// tree for queries and summary export.
type streamHandle struct {
	ref  multi.StreamRef
	tree *core.Tree
}

// UseMonitor makes m the monitor every tree of this server lives in.
// The default stream is registered in m under the empty name, or taken
// over when m already holds it (a durable monitor recovers it at
// <DataDir>/s-/ on Add). Named streams are registered on their first
// sdata frame, so a cluster client never pre-declares placement;
// queries against unknown streams are soft errors. Call it before data
// flows. The monitor NewServer created is closed; the caller keeps
// ownership of m and closes it after the server shuts down.
func (s *Server) UseMonitor(m *multi.Monitor) error {
	if m == nil {
		return errors.New("wire: nil monitor")
	}
	def, err := openStream(m, "", true)
	if err != nil {
		return err
	}
	if s.ownMonitor {
		s.monitor.Close() // in memory: nothing to flush, nothing to fail
	}
	s.monitor, s.ownMonitor, s.def = m, false, def
	s.streamMu.Lock()
	s.streamRefs = make(map[string]streamHandle)
	s.streamMu.Unlock()
	return nil
}

// Monitor returns the monitor holding the server's trees.
func (s *Server) Monitor() *multi.Monitor { return s.monitor }

// streamHandleFor resolves a stream name through the server-wide
// cache, registering it when autoAdd is set (the ingest path). Ingest
// reaches it only behind each connection's one-slot cache; batched
// points call it per name. A hit never allocates; registering a name
// does.
func (s *Server) streamHandleFor(name []byte, autoAdd bool) (streamHandle, error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if h, ok := s.streamRefs[string(name)]; ok {
		return h, nil
	}
	n := string(name)
	h, err := openStream(s.monitor, n, autoAdd)
	if err != nil {
		return streamHandle{}, err
	}
	s.streamRefs[n] = h
	return h, nil
}

// openStream resolves a stream of m, registering it first when autoAdd
// is set.
func openStream(m *multi.Monitor, name string, autoAdd bool) (streamHandle, error) {
	ref, err := m.Ref(name)
	if err != nil {
		if !autoAdd {
			return streamHandle{}, err
		}
		if err := m.Add(name); err != nil {
			return streamHandle{}, err
		}
		if ref, err = m.Ref(name); err != nil {
			return streamHandle{}, err
		}
	}
	tree, err := m.Tree(name)
	if err != nil {
		return streamHandle{}, err
	}
	return streamHandle{ref: ref, tree: tree}, nil
}

// resolveStream resolves through the connection's one-slot cache.
//
//swat:noalloc
func (bc *binConn) resolveStream(s *Server, name []byte, autoAdd bool) (streamHandle, error) {
	if bc.scached && bytes.Equal(bc.sname, name) {
		return bc.shandle, nil
	}
	h, err := s.streamHandleFor(name, autoAdd)
	if err != nil {
		return streamHandle{}, err
	}
	bc.sname = append(bc.sname[:0], name...)
	bc.shandle = h
	bc.scached = true
	return h, nil
}

// handleStreamData decodes one sdata frame into a recycled batch and
// hands it to the shared ingest queue tagged with its stream ref. Like
// the default stream's data path it is one-way; unlike it there is no
// sequence check — streams interleave on a connection, so ordering is
// per stream (guaranteed by connection FIFO plus the single ingest
// worker), not per connection.
//
//swat:noalloc
func (s *Server) handleStreamData(bc *binConn, payload []byte) error {
	b := s.ingest.get()
	name, epoch, vals, err := decodeStreamDataFrame(payload, b.vals[:0])
	if err != nil {
		s.ingest.put(b)
		return err
	}
	// Stale-epoch data is fatal to the connection, like a sequence
	// break: the path is one-way, so there is no reply slot to refuse
	// in, and applying even one batch routed by an old ring would
	// double-count it against the stream's new owner.
	if err := s.epochCheck(epoch); err != nil {
		s.ingest.put(b)
		return err
	}
	b.vals = vals
	h, err := bc.resolveStream(s, name, true)
	if err != nil {
		s.ingest.put(b)
		return err
	}
	b.ref = h.ref
	s.ingest.offer(b, s.Policy)
	return nil
}

// handleStreamPoints answers one spoint frame with one spointRes. A
// stale epoch refuses the whole frame with one soft error frame; an
// unknown stream, cold tree or bad age refuses only its own entry.
// Names resolve through the server-wide map: a batch would only thrash
// the connection's one-slot cache.
//
//swat:noalloc
func (s *Server) handleStreamPoints(bc *binConn, payload []byte) error {
	epoch, age, n, names, err := decodeStreamPointsFrame(payload)
	if err != nil {
		return err
	}
	if err := s.epochCheck(epoch); err != nil {
		s.binError(bc, err)
		return nil
	}
	bc.wbuf = beginStreamPointsRes(bc.wbuf[:0], n)
	for i := 0; i < n; i++ {
		var name []byte
		name, names, _ = splitStreamName(names) // validated by the decode
		h, err := s.streamHandleFor(name, false)
		var val, bound float64
		if err == nil {
			val, bound, err = h.tree.BoundedPoint(age)
		}
		if err != nil {
			bc.wbuf = appendRefusal(bc.wbuf, err.Error())
			continue
		}
		bc.wbuf = appendStreamPointOK(bc.wbuf, val, bound, h.tree.Arrivals())
	}
	bc.wbuf = codec.Finish(bc.wbuf, 0)
	return s.binWrite(bc)
}

// handleStreamFold answers one sfold frame with one sfoldRes: the
// monitor folds every named stream it can (multi.Monitor.FoldSummary,
// which also advances streams lagging the client's sent counts) and
// the reply carries a status per name plus one summary. A stale epoch
// refuses the whole frame with one soft error frame; an unknown or cold
// stream refuses only its own entry.
func (s *Server) handleStreamFold(bc *binConn, payload []byte) error {
	epoch, o, n, entries, err := decodeStreamFoldFrame(payload)
	if err != nil {
		return err
	}
	if err := s.epochCheck(epoch); err != nil {
		s.binError(bc, err)
		return nil
	}
	names, sent := make([]string, n), make([]int64, n)
	for i := range names {
		var name []byte
		name, sent[i], entries, _ = splitFoldEntry(entries) // validated by the decode
		names[i] = string(name)
	}
	refused := make([]error, n)
	sum, err := s.monitor.FoldSummary(names, sent, o, refused)
	if err != nil {
		s.binError(bc, err)
		return nil
	}
	bc.wbuf = beginStreamFoldRes(bc.wbuf[:0], n)
	for _, r := range refused {
		if r != nil {
			bc.wbuf = appendRefusal(bc.wbuf, r.Error())
		} else {
			bc.wbuf = append(bc.wbuf, 1)
		}
	}
	if sum != nil {
		tree, err := core.FromSummary(sum)
		if err != nil {
			// Unreachable: the fold's output always validates.
			s.binError(bc, err)
			return nil
		}
		bc.wbuf = tree.AppendSummary(bc.wbuf)
	}
	if len(bc.wbuf)-codec.HeaderLen > MaxFrame {
		s.binError(bc, errSummaryLarge)
		return nil
	}
	bc.wbuf = codec.Finish(bc.wbuf, 0)
	return s.binWrite(bc)
}

// handleStreamSummary replies to an ssum frame with the named stream's
// canonical summary in an ordinary sumRes frame.
func (s *Server) handleStreamSummary(bc *binConn, payload []byte) error {
	epoch, payload, err := splitEpoch(payload)
	if err != nil {
		return err
	}
	name, rest, err := splitStreamName(payload)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errFrameLength
	}
	if err := s.epochCheck(epoch); err != nil {
		s.binError(bc, err)
		return nil
	}
	h, err := bc.resolveStream(s, name, false)
	if err != nil {
		s.binError(bc, err)
		return nil
	}
	bc.wbuf = codec.Begin(bc.wbuf[:0])
	bc.wbuf = append(bc.wbuf, bfSumRes)
	bc.wbuf = h.tree.AppendSummary(bc.wbuf)
	if len(bc.wbuf)-codec.HeaderLen > MaxFrame {
		s.binError(bc, errSummaryLarge)
		return nil
	}
	bc.wbuf = codec.Finish(bc.wbuf, 0)
	return s.binWrite(bc)
}
