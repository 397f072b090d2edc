package wire

// Live-resharding wire support: ring epochs and resumable summary
// handoff. Two concerns share this file because they share a fate —
// a summary transfer is only correct relative to a ring version, and
// a ring version is only safe to flip once the transfers under it
// committed.
//
// # Epochs
//
// Every node carries a ring epoch (0 = unversioned, the state of a
// fresh process). Stream-addressed frames stamp the sender's epoch;
// the server applies one rule, monotonic adopt-forward:
//
//   - frame epoch 0, or equal to the server's: accept.
//   - frame epoch ahead of the server's: adopt it, then accept. A
//     server that missed the cutover broadcast self-heals on first
//     contact with a newer client.
//   - frame epoch behind the server's (both nonzero): refuse. For the
//     one-way sdata path the refusal is fatal to the connection (like
//     a sequence break — there is no reply slot to say no in), for
//     round-trip frames it is a soft error frame. Either way the
//     stale client learns its placement is old instead of having its
//     values silently double-counted across two owners.
//
// The epoch frame is the control plane: get reads the node's version,
// set fences it forward at cutover (Rebalance broadcasts the new epoch
// to the union of old and new rings so even nodes that will never see
// new-epoch traffic refuse stale writers).
//
// # Summary handoff
//
// A handoff moves a bundle: the canonical summaries of a stream set
// under a name index (core.NewBundleTransfer; a single stream is a
// bundle of one). migRead names the set and migChunk serves the
// bundle from the old owner in chunks; migWrite/migStat/migCommit
// assemble it on the new owner and install every entry
// (core.SummaryTransfer / core.SummaryAssembly do the byte-level
// work). The whole-bundle CRC32C is the transfer identity on both
// sides: a resume offset is honored only under a matching CRC,
// otherwise the peer restarts the bundle at offset zero — detectable
// by the driver because every reply carries the identity it actually
// served. Inbound assemblies live on the Server keyed by the name the
// write frames carry — the bundle key, which cluster.Rebalance sets to
// the source node's address, so the table holds one entry per source
// — and an interrupted driver resumes across reconnects from the
// `have` resume token, never re-sending applied bytes; committed
// transfers are remembered by identity, making commits idempotent.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
)

// Chunk-size bounds for migChunk replies: a zero request gets
// defaultMigChunk, anything larger than maxMigChunk is clamped so one
// chunk can never approach MaxFrame.
const (
	defaultMigChunk = 64 << 10
	maxMigChunk     = 256 << 10
)

// migReadHdr is a migRead frame's size besides its names: type, count,
// offset, crc, max.
const migReadHdr = 1 + 4 + 8 + 4 + 4

var (
	errEpochStale = errors.New("wire: frame ring epoch behind server: placement is stale, refresh the ring")
	errMigNoXfer  = errors.New("wire: no matching summary transfer for commit")
)

// MigChunk is one slice of an exported bundle, as served by migRead.
// Data aliases the client's receive buffer: valid until the next call
// on the same BinClient.
type MigChunk struct {
	Offset int64
	Total  int64
	CRC    uint32
	Data   []byte
}

// MigState is the new owner's view of one inbound bundle: the
// contiguous bytes received (the resume token), the declared identity,
// and whether the transfer has been committed (installed).
type MigState struct {
	Have      int64
	Total     int64
	CRC       uint32
	Committed bool
}

// migEntry is one bundle key's inbound transfer on the server. Before
// commit, asm accumulates chunks; after commit asm is dropped and the
// identity is retained so duplicate commits and probes answer
// idempotently.
type migEntry struct {
	asm       *core.SummaryAssembly
	total     int64
	crc       uint32
	committed bool
}

// ── frame codecs ─────────────────────────────────────────────────────

// appendEpochFrame appends an epoch control frame: op 0 reads the
// server's epoch, op 1 fences it forward to max(server, epoch).
func appendEpochFrame(dst []byte, op byte, epoch uint64) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	var b [10]byte
	b[0] = bfEpoch
	b[1] = op
	binary.BigEndian.PutUint64(b[2:], epoch)
	dst = append(dst, b[:]...)
	return codec.Finish(dst, start)
}

// decodeEpochFrame parses an epoch frame payload.
func decodeEpochFrame(payload []byte) (op byte, epoch uint64, err error) {
	if len(payload) != 9 {
		return 0, 0, errFrameLength
	}
	if payload[0] > 1 {
		return 0, 0, errFrameType
	}
	return payload[0], binary.BigEndian.Uint64(payload[1:]), nil
}

// MigReadFit returns how many names, from the front, one migRead
// frame carries under MaxFrame (at least one: names are at most
// maxStreamName bytes). A driver moving more names than fit splits
// them into several bundles.
//
//swat:noalloc
func MigReadFit(names []string) int {
	size := migReadHdr
	for i, name := range names {
		size += 2 + len(name)
		if size > MaxFrame {
			return i
		}
	}
	return len(names)
}

// appendMigReadFrame requests a chunk of the bundle of the named
// streams' summaries at offset; crc fences resumes (0 for a fresh
// transfer), max bounds the reply's chunk size (0 for the server
// default).
func appendMigReadFrame(dst []byte, names []string, offset int64, crc uint32, max int) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfMigRead)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(names)))
	for _, name := range names {
		dst = appendStreamName(dst, name)
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(offset))
	binary.BigEndian.PutUint32(b[8:], crc)
	binary.BigEndian.PutUint32(b[12:], uint32(max))
	dst = append(dst, b[:]...)
	return codec.Finish(dst, start)
}

// decodeMigReadFrame parses a migRead frame payload. set is the count
// and the still-encoded list of n names (walk it with splitStreamName
// after the count), aliasing payload; it doubles as the export's cache
// key. A count the payload cannot hold (every name costs at least
// three bytes) is refused before the walk.
func decodeMigReadFrame(payload []byte) (n int, set []byte, offset int64, crc uint32, max int, err error) {
	if len(payload) < 4+16 {
		return 0, nil, 0, 0, 0, errFrameTruncated
	}
	n = int(binary.BigEndian.Uint32(payload))
	end := len(payload) - 16
	if n == 0 || n > (end-4)/3 {
		return 0, nil, 0, 0, 0, errFrameLength
	}
	rest := payload[4:end]
	for i := 0; i < n; i++ {
		if _, rest, err = splitStreamName(rest); err != nil {
			return 0, nil, 0, 0, 0, err
		}
	}
	if len(rest) != 0 {
		return 0, nil, 0, 0, 0, errFrameLength
	}
	tail := payload[end:]
	offset = int64(binary.BigEndian.Uint64(tail))
	if offset < 0 {
		return 0, nil, 0, 0, 0, errFrameLength
	}
	crc = binary.BigEndian.Uint32(tail[8:])
	max = int(binary.BigEndian.Uint32(tail[12:]))
	return n, payload[:end], offset, crc, max, nil
}

// appendMigChunkFrame appends the export side's reply: the identity of
// the transfer being served and the bytes at offset.
func appendMigChunkFrame(dst []byte, offset, total int64, crc uint32, data []byte) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	var b [25]byte
	b[0] = bfMigChunk
	binary.BigEndian.PutUint64(b[1:], uint64(offset))
	binary.BigEndian.PutUint64(b[9:], uint64(total))
	binary.BigEndian.PutUint32(b[17:], crc)
	binary.BigEndian.PutUint32(b[21:], uint32(len(data)))
	dst = append(dst, b[:]...)
	dst = append(dst, data...)
	return codec.Finish(dst, start)
}

// decodeMigChunkFrame parses a migChunk frame payload. Data aliases
// payload.
func decodeMigChunkFrame(payload []byte) (ch MigChunk, err error) {
	if len(payload) < 24 {
		return MigChunk{}, errFrameTruncated
	}
	ch.Offset = int64(binary.BigEndian.Uint64(payload))
	ch.Total = int64(binary.BigEndian.Uint64(payload[8:]))
	n := int(binary.BigEndian.Uint32(payload[20:]))
	if ch.Offset < 0 || ch.Total < 0 || n != len(payload)-24 {
		return MigChunk{}, errFrameLength
	}
	ch.CRC = binary.BigEndian.Uint32(payload[16:])
	ch.Data = payload[24:]
	return ch, nil
}

// appendMigWriteFrame lands data at offset of the bundle with the
// given key and identity on the new owner. An empty data slice is a pure
// probe-with-identity: it opens (or validates) the assembly and
// returns its state without advancing it.
func appendMigWriteFrame(dst []byte, name string, offset, total int64, crc uint32, data []byte) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfMigWrite)
	dst = appendStreamName(dst, name)
	var b [24]byte
	binary.BigEndian.PutUint64(b[:8], uint64(offset))
	binary.BigEndian.PutUint64(b[8:], uint64(total))
	binary.BigEndian.PutUint32(b[16:], crc)
	binary.BigEndian.PutUint32(b[20:], uint32(len(data)))
	dst = append(dst, b[:]...)
	dst = append(dst, data...)
	return codec.Finish(dst, start)
}

// decodeMigWriteFrame parses a migWrite frame payload. name and data
// alias payload.
func decodeMigWriteFrame(payload []byte) (name []byte, offset, total int64, crc uint32, data []byte, err error) {
	name, rest, err := splitStreamName(payload)
	if err != nil {
		return nil, 0, 0, 0, nil, err
	}
	if len(rest) < 24 {
		return nil, 0, 0, 0, nil, errFrameTruncated
	}
	offset = int64(binary.BigEndian.Uint64(rest))
	total = int64(binary.BigEndian.Uint64(rest[8:]))
	n := int(binary.BigEndian.Uint32(rest[20:]))
	if offset < 0 || total < 0 || n != len(rest)-24 {
		return nil, 0, 0, 0, nil, errFrameLength
	}
	crc = binary.BigEndian.Uint32(rest[16:])
	return name, offset, total, crc, rest[24:], nil
}

// appendMigStatFrame asks for the keyed bundle's transfer state.
func appendMigStatFrame(dst []byte, name string) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfMigStat)
	dst = appendStreamName(dst, name)
	return codec.Finish(dst, start)
}

// appendMigCommitFrame verifies and installs a completed bundle.
// epoch is the target ring epoch of the migration; a server already
// past it refuses the commit (a late duplicate must not clobber
// post-cutover state).
func appendMigCommitFrame(dst []byte, name string, total int64, crc uint32, epoch uint64) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfMigCommit)
	dst = appendStreamName(dst, name)
	var b [20]byte
	binary.BigEndian.PutUint64(b[:8], uint64(total))
	binary.BigEndian.PutUint32(b[8:], crc)
	binary.BigEndian.PutUint64(b[12:], epoch)
	dst = append(dst, b[:]...)
	return codec.Finish(dst, start)
}

// decodeMigCommitFrame parses a migCommit frame payload. The returned
// name aliases payload.
func decodeMigCommitFrame(payload []byte) (name []byte, total int64, crc uint32, epoch uint64, err error) {
	name, rest, err := splitStreamName(payload)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if len(rest) != 20 {
		return nil, 0, 0, 0, errFrameLength
	}
	total = int64(binary.BigEndian.Uint64(rest))
	if total < 0 {
		return nil, 0, 0, 0, errFrameLength
	}
	return name, total, binary.BigEndian.Uint32(rest[8:]), binary.BigEndian.Uint64(rest[12:]), nil
}

// appendMigStateFrame appends the new owner's transfer-state reply.
func appendMigStateFrame(dst []byte, st MigState) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	var b [22]byte
	b[0] = bfMigState
	binary.BigEndian.PutUint64(b[1:], uint64(st.Have))
	binary.BigEndian.PutUint64(b[9:], uint64(st.Total))
	binary.BigEndian.PutUint32(b[17:], st.CRC)
	if st.Committed {
		b[21] = 1
	}
	dst = append(dst, b[:]...)
	return codec.Finish(dst, start)
}

// decodeMigStateFrame parses a migState frame payload.
func decodeMigStateFrame(payload []byte) (MigState, error) {
	if len(payload) != 21 {
		return MigState{}, errFrameLength
	}
	st := MigState{
		Have:  int64(binary.BigEndian.Uint64(payload)),
		Total: int64(binary.BigEndian.Uint64(payload[8:])),
		CRC:   binary.BigEndian.Uint32(payload[16:]),
	}
	if st.Have < 0 || st.Total < 0 || payload[20] > 1 {
		return MigState{}, errFrameLength
	}
	st.Committed = payload[20] == 1
	return st, nil
}

// ── server side ──────────────────────────────────────────────────────

// Epoch returns the server's ring epoch (0 until set or adopted).
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// SetEpoch fences the server's ring epoch forward to max(current, e)
// and returns the result. Lowering is impossible by design: epochs
// only move toward newer placements.
func (s *Server) SetEpoch(e uint64) uint64 {
	s.epochAdopt(e)
	return s.epoch.Load()
}

// epochAdopt raises the server epoch to at least e.
//
//swat:noalloc
func (s *Server) epochAdopt(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur || s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// epochCheck applies the adopt-forward rule to one stream frame's
// epoch stamp: nil means accept (possibly after adopting a newer
// epoch), errEpochStale means the sender's placement is old.
//
//swat:noalloc
func (s *Server) epochCheck(fe uint64) error {
	if fe == 0 {
		return nil
	}
	for {
		se := s.epoch.Load()
		if fe == se {
			return nil
		}
		if fe < se && se != 0 {
			s.epochRefusals.Add(1)
			return errEpochStale
		}
		if s.epoch.CompareAndSwap(se, fe) {
			return nil
		}
	}
}

// handleEpoch serves the epoch control frame.
func (s *Server) handleEpoch(bc *binConn, payload []byte) error {
	op, e, err := decodeEpochFrame(payload)
	if err != nil {
		return err
	}
	if op == 1 {
		s.epochAdopt(e)
	}
	bc.wbuf = appendU64Frame(bc.wbuf[:0], bfEpochRes, s.epoch.Load())
	return s.binWrite(bc)
}

// handleMigRead serves one chunk of the bundle of the named streams'
// summaries. The bundle is snapshotted once and cached per connection
// under its name list and CRC: a resume (offset > 0) is honored only
// while the cached or freshly taken snapshot of the same set still
// carries the requested CRC; otherwise the reply restarts at offset
// zero with the new identity, which the driver detects by comparing
// the reply offset against its request. A set naming a stream the
// server does not hold, or naming one twice, is refused whole.
func (s *Server) handleMigRead(bc *binConn, payload []byte) error {
	n, set, offset, crc, max, err := decodeMigReadFrame(payload)
	if err != nil {
		return err
	}
	exp := bc.exp
	if exp == nil || offset == 0 || exp.CRC() != crc || !bytes.Equal(bc.expKey, set) {
		names := make([]string, n)
		trees := make([]*core.Tree, n)
		rest := set[4:]
		for i := range names {
			var name []byte
			name, rest, _ = splitStreamName(rest) // validated by the decode
			h, err := bc.resolveStream(s, name, false)
			if err != nil {
				s.binError(bc, err)
				return nil
			}
			names[i], trees[i] = string(name), h.tree
		}
		if exp, err = core.NewBundleTransfer(names, trees); err != nil {
			s.binError(bc, err)
			return nil
		}
		bc.exp = exp
		bc.expKey = append(bc.expKey[:0], set...)
	}
	if offset > exp.Len() || exp.CRC() != crc {
		offset = 0 // resume fence tripped: restart with the snapshot we have
	}
	if max <= 0 {
		max = defaultMigChunk
	} else if max > maxMigChunk {
		max = maxMigChunk
	}
	chunk, err := exp.Chunk(offset, max)
	if err != nil {
		s.binError(bc, err)
		return nil
	}
	bc.wbuf = appendMigChunkFrame(bc.wbuf[:0], offset, exp.Len(), exp.CRC(), chunk)
	if offset+int64(len(chunk)) == exp.Len() {
		// The last chunk is out: release the snapshot. A driver that
		// lost this reply resumes against a fresh one under the fence.
		bc.exp = nil
	}
	return s.binWrite(bc)
}

// migLookup returns the keyed bundle's transfer entry, creating the
// table on first use. Caller holds migMu.
func (s *Server) migLookup(key []byte) *migEntry {
	if s.mig == nil {
		s.mig = make(map[string]*migEntry)
	}
	return s.mig[string(key)]
}

// MigTransfers returns how many inbound transfers, pending or
// committed, the server remembers: one per bundle key, so one per
// source node that ever handed streams to it via cluster.Rebalance.
func (s *Server) MigTransfers() int {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return len(s.mig)
}

// handleMigWrite lands one chunk on the inbound assembly, opening or
// restarting it when the identity is new. Replies always carry the
// assembly's contiguous `have` — a write past it (a gap, e.g. after
// the server restarted and lost the partial assembly) is not an
// error, the driver just resumes from the returned token. Bytes at or
// below `have` are idempotent duplicates.
func (s *Server) handleMigWrite(bc *binConn, payload []byte) error {
	name, offset, total, crc, data, err := decodeMigWriteFrame(payload)
	if err != nil {
		return err
	}
	s.migMu.Lock()
	defer s.migMu.Unlock()
	e := s.migLookup(name)
	if e != nil && e.committed && e.crc == crc && e.total == total {
		bc.wbuf = appendMigStateFrame(bc.wbuf[:0], MigState{Have: total, Total: total, CRC: crc, Committed: true})
		return s.binWrite(bc)
	}
	if e == nil || e.committed || e.asm == nil || !e.asm.Matches(total, crc) {
		asm, aerr := core.NewSummaryAssembly(total, crc)
		if aerr != nil {
			s.binError(bc, aerr)
			return nil
		}
		e = &migEntry{asm: asm, total: total, crc: crc}
		s.mig[string(name)] = e
	}
	if err := e.asm.Append(offset, data); err != nil && !errors.Is(err, core.ErrTransferGap) {
		s.binError(bc, err)
		return nil
	}
	bc.wbuf = appendMigStateFrame(bc.wbuf[:0], MigState{Have: e.asm.Have(), Total: total, CRC: crc})
	return s.binWrite(bc)
}

// handleMigStat reports the keyed bundle's transfer state; a key with
// no transfer answers all zeros.
func (s *Server) handleMigStat(bc *binConn, payload []byte) error {
	name, rest, err := splitStreamName(payload)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errFrameLength
	}
	var st MigState
	s.migMu.Lock()
	if e := s.migLookup(name); e != nil {
		st = MigState{Total: e.total, CRC: e.crc, Committed: e.committed}
		if e.committed {
			st.Have = e.total
		} else if e.asm != nil {
			st.Have = e.asm.Have()
		}
	}
	s.migMu.Unlock()
	bc.wbuf = appendMigStateFrame(bc.wbuf[:0], st)
	return s.binWrite(bc)
}

// handleMigCommit verifies the assembled bundle against its declared
// identity and installs each entry's summary on the monitor — every
// stream's tree state afterwards is exactly the old owner's export.
// Commits are idempotent under the same identity and refused when the
// server's epoch has already moved past the migration's target (a late
// duplicate from an aborted driver must not clobber post-cutover
// state).
func (s *Server) handleMigCommit(bc *binConn, payload []byte) error {
	key, total, crc, epoch, err := decodeMigCommitFrame(payload)
	if err != nil {
		return err
	}
	if se := s.epoch.Load(); se != 0 && epoch != 0 && epoch < se {
		s.epochRefusals.Add(1)
		s.binError(bc, fmt.Errorf("wire: commit targets ring epoch %d but server is at %d", epoch, se))
		return nil
	}
	s.migMu.Lock()
	defer s.migMu.Unlock()
	e := s.migLookup(key)
	if e != nil && e.committed && e.crc == crc && e.total == total {
		bc.wbuf = appendMigStateFrame(bc.wbuf[:0], MigState{Have: total, Total: total, CRC: crc, Committed: true})
		return s.binWrite(bc)
	}
	if e == nil || e.asm == nil || !e.asm.Matches(total, crc) {
		s.binError(bc, errMigNoXfer)
		return nil
	}
	if err := s.installBundle(e.asm); err != nil {
		s.binError(bc, err)
		return nil
	}
	e.asm = nil // free the buffer; identity stays for idempotent re-commits
	e.committed = true
	bc.wbuf = appendMigStateFrame(bc.wbuf[:0], MigState{Have: total, Total: total, CRC: crc, Committed: true})
	return s.binWrite(bc)
}

// installBundle verifies a complete assembly's CRC and installs every
// entry of the bundle it holds, in index order, each decoded just
// before its install into one scratch Summary that the whole bundle
// reuses: an install copies the summary into the stream's tree, so
// entries into existing streams of one geometry allocate nothing. An
// entry that fails to decode or install stops the commit with the
// entries before it installed: like any install of an uncommitted
// migration they are inert until a ring routes to them, and a retried
// commit reinstalls them.
func (s *Server) installBundle(asm *core.SummaryAssembly) error {
	xfer, err := asm.Transfer()
	if err != nil {
		return err
	}
	entries, err := xfer.Entries()
	if err != nil {
		return err
	}
	var sum core.Summary
	for _, en := range entries {
		if len(en.Name) > maxStreamName {
			return errStreamName
		}
		if err := core.DecodeSummaryInto(&sum, en.Summary); err != nil {
			return fmt.Errorf("wire: bundle entry %q: %w", en.Name, err)
		}
		if err := s.monitor.InstallSummary(en.Name, &sum); err != nil {
			return err
		}
	}
	return nil
}

// ── client side ──────────────────────────────────────────────────────

// SetEpoch stamps every subsequent stream-addressed frame this client
// sends with the given ring epoch. Zero (the default) sends
// unversioned frames.
func (c *BinClient) SetEpoch(e uint64) { c.epoch = e }

// Epoch returns the client's current frame stamp.
func (c *BinClient) Epoch() uint64 { return c.epoch }

// RingEpoch reads the server's ring epoch.
func (c *BinClient) RingEpoch() (uint64, error) {
	return c.epochOp(0, 0)
}

// SetRingEpoch fences the server's ring epoch forward to at least e
// and returns the server's resulting epoch.
func (c *BinClient) SetRingEpoch(e uint64) (uint64, error) {
	return c.epochOp(1, e)
}

func (c *BinClient) epochOp(op byte, e uint64) (uint64, error) {
	c.wbuf = appendEpochFrame(c.wbuf[:0], op, e)
	body, err := c.roundTripBin()
	if err != nil {
		return 0, err
	}
	if len(body) != 9 || body[0] != bfEpochRes {
		return 0, errFrameType
	}
	return binary.BigEndian.Uint64(body[1:]), nil
}

// MigRead fetches one chunk of the named stream's export — a bundle
// of one — from its (old) owner; see MigReadSet.
func (c *BinClient) MigRead(name string, offset int64, crc uint32, max int) (MigChunk, error) {
	return c.MigReadSet([]string{name}, offset, crc, max)
}

// MigReadSet fetches one chunk of the bundle of the named streams'
// summaries from their (old) owner. The names must fit one frame
// (MigReadFit). offset/crc resume an interrupted transfer (crc 0 with
// offset 0 starts fresh); max bounds the chunk size (0 for the server
// default). The reply's identity is authoritative: if the returned
// offset differs from the request, the source restarted the transfer
// and the caller must reset its assembly to the returned (Total,
// CRC). Data aliases the client's receive buffer.
func (c *BinClient) MigReadSet(names []string, offset int64, crc uint32, max int) (MigChunk, error) {
	if len(names) == 0 {
		return MigChunk{}, errors.New("wire: migRead of no streams")
	}
	if k := MigReadFit(names); k < len(names) {
		return MigChunk{}, fmt.Errorf("wire: %d streams do not fit one migRead frame (%d do)", len(names), k)
	}
	for _, name := range names {
		if len(name) == 0 || len(name) > maxStreamName {
			return MigChunk{}, errStreamName
		}
	}
	c.wbuf = appendMigReadFrame(c.wbuf[:0], names, offset, crc, max)
	body, err := c.roundTripBin()
	if err != nil {
		return MigChunk{}, err
	}
	if len(body) < 1 || body[0] != bfMigChunk {
		return MigChunk{}, errFrameType
	}
	return decodeMigChunkFrame(body[1:])
}

// MigWrite lands data at offset of the bundle identified by (total,
// crc) under the given key on the new owner and returns its state. An
// empty data slice probes: it opens or validates the assembly without
// advancing it. The returned Have is the resume token — the next write
// belongs at that offset, so a driver resuming after a cut probes
// before writing and never re-sends applied bytes.
func (c *BinClient) MigWrite(name string, offset, total int64, crc uint32, data []byte) (MigState, error) {
	if len(name) == 0 || len(name) > maxStreamName {
		return MigState{}, errStreamName
	}
	c.wbuf = appendMigWriteFrame(c.wbuf[:0], name, offset, total, crc, data)
	return c.migStateRoundTrip()
}

// MigStat reads the keyed bundle's transfer state on the new owner;
// all-zero state means no transfer is known.
func (c *BinClient) MigStat(name string) (MigState, error) {
	if len(name) == 0 || len(name) > maxStreamName {
		return MigState{}, errStreamName
	}
	c.wbuf = appendMigStatFrame(c.wbuf[:0], name)
	return c.migStateRoundTrip()
}

// MigCommit verifies the keyed, completed bundle on the new owner and
// installs every stream it carries. epoch is the migration's target
// ring epoch (0 skips the fence). Idempotent under one identity.
func (c *BinClient) MigCommit(name string, total int64, crc uint32, epoch uint64) (MigState, error) {
	if len(name) == 0 || len(name) > maxStreamName {
		return MigState{}, errStreamName
	}
	c.wbuf = appendMigCommitFrame(c.wbuf[:0], name, total, crc, epoch)
	return c.migStateRoundTrip()
}

func (c *BinClient) migStateRoundTrip() (MigState, error) {
	body, err := c.roundTripBin()
	if err != nil {
		return MigState{}, err
	}
	if len(body) != 22 || body[0] != bfMigState {
		return MigState{}, errFrameType
	}
	return decodeMigStateFrame(body[1:])
}
