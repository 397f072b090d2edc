package wire

// Wire protocol v2: the binary data plane. It moves batches of raw
// float64s through reused buffers with the same CRC32C length-prefixed
// framing the durable WAL uses (internal/codec) — one codec validates
// bytes at rest and bytes in flight.
//
// # Negotiation
//
// A client opens its connection with the 4-byte magic "SWA2" followed
// by a hello frame carrying its version; the server acks with the
// version, its backpressure policy and its queue capacity. A
// connection that opens with anything but the magic is logged and
// closed without a reply.
//
// # Frames
//
// Every frame is codec-framed: u32 bodyLen | u32 crc32c(body) | body.
// The body's first byte selects the frame type; multi-byte integers are
// big-endian, floats are IEEE-754 bits:
//
//	hello     c→s  u8 version
//	helloAck  s→c  u8 version | u8 policy | u32 queueCap
//	data      c→s  u64 firstIndex | u32 count | count×f64
//	query     c→s  u32 nq | nq × (u32 nterms | nterms×(u32 age | f64 weight))
//	answer    s→c  u32 n | n×f64
//	stats     c→s  (empty)
//	statsRes  s→c  u64 arrivals | u32 window | u32 nodes | u8 ready |
//	               u8 policy | u32 queueCap | u32 queueLen |
//	               u64 enqueued | u64 shed | u64 ingestErrs
//	ping      c→s  u64 token
//	pong      s→c  u64 token
//	error     s→c  utf8 message
//	sumReq    c→s  (empty)
//	sumRes    s→c  one summary codec frame (core.AppendSummary encoding)
//	sdata     c→s  u64 epoch | u16 nameLen | name | u32 count | count×f64
//	spoint    c→s  u64 epoch | u32 age | u32 n | n × (u16 nameLen | name)
//	spointRes s→c  u32 n | n × (u8 1 | f64 value | f64 bound | u64 arrivals
//	                            or u8 0 | u16 len | msg)
//	ssum      c→s  u64 epoch | u16 nameLen | name  (reply: sumRes)
//	sfold     c→s  u64 epoch | f64 lo | f64 hi | u32 n |
//	               n × (u16 nameLen | name | u64 sent)
//	sfoldRes  s→c  u32 n | n × (u8 1 or u8 0 | u16 len | msg) |
//	               one summary codec frame of the folded streams
//	               (absent when none folded)
//	epoch     c→s  u8 op (0 get, 1 set) | u64 epoch
//	epochRes  s→c  u64 epoch   (the server's epoch after the op)
//	migRead   c→s  u16 nameLen | name | u64 offset | u32 crc | u32 max
//	migChunk  s→c  u64 offset | u64 total | u32 crc | u32 n | n bytes
//	migWrite  c→s  u16 nameLen | name | u64 offset | u64 total |
//	               u32 crc | u32 n | n bytes
//	migStat   c→s  u16 nameLen | name
//	migCommit c→s  u16 nameLen | name | u64 total | u32 crc | u64 epoch
//	migState  s→c  u64 have | u64 total | u32 crc | u8 committed
//	subscribe c→s  f64 minChange | u32 1 | u32 nterms |
//	               nterms×(u32 age | f64 weight)  (a one-query query payload)
//	subscribed s→c u32 id
//	notify    s→c  u32 id | f64 value | u64 arrivals  (pushed; see subscribe.go)
//
// Data frames are one-way: the client streams them without per-frame
// acknowledgements and learns the server's view — arrivals applied,
// queue depth, values shed — from stats frames. firstIndex is the client's running value
// offset (0-based); the server enforces contiguity per connection so a
// client bug that skips or repeats a batch is caught at the protocol
// layer instead of corrupting the summary silently.

import (
	"encoding/binary"
	"errors"
	"io"
	"math"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/query"
)

// binMagic opens every connection.
var binMagic = [4]byte{'S', 'W', 'A', '2'}

// binVersion is the protocol version hello/helloAck carry.
const binVersion = 2

// Frame type bytes (first byte of every codec-framed body).
const (
	bfHello    = 0x01
	bfHelloAck = 0x02
	bfData     = 0x03
	bfQuery    = 0x04
	bfAnswer   = 0x05
	bfStats    = 0x06
	bfStatsRes = 0x07
	bfPing     = 0x08
	bfPong     = 0x09
	bfError    = 0x0A
	// Summary export (mergeable roll-ups): sumReq asks for the default
	// stream's canonical encoded summary; sumRes carries it verbatim as
	// produced by core.AppendSummary — itself a codec frame, so the
	// payload self-validates a second time when core.DecodeSummary
	// parses it.
	bfSumReq = 0x0B
	bfSumRes = 0x0C
	// Stream-addressed frames (the cluster data plane, see streams.go):
	// where data/query/sumReq implicitly target the server's default
	// stream, these carry a stream name and target one named stream of
	// the server's multi.Monitor. sdata is one-way
	// like data but carries no sequence index — many streams interleave
	// on one connection, so per-connection contiguity is meaningless;
	// per-stream delivery accounting lives in the cluster client.
	bfSData = 0x0D
	bfSSum  = 0x10
	// Live-resharding control plane (see migrate.go): epoch get/set is
	// the v2 control frame a node learns its ring version through;
	// migRead/migChunk export a stream's summary from its old owner in
	// resumable chunks, migWrite/migStat/migCommit land it on the new
	// owner, all fenced by the transfer's whole-encoding CRC32C.
	bfEpoch     = 0x11
	bfEpochRes  = 0x12
	bfMigRead   = 0x13
	bfMigChunk  = 0x14
	bfMigWrite  = 0x15
	bfMigStat   = 0x16
	bfMigCommit = 0x17
	bfMigState  = 0x18
	// Batched stream points: one spoint names every stream a node owns,
	// one spointRes answers them all. 0x0E/0x0F, the retired
	// one-stream query pair, stay unassigned.
	bfSPoint    = 0x19
	bfSPointRes = 0x1A
	// Batched stream folds: one sfold names every stream a node owns
	// with the client's sent count; the node folds them itself and one
	// sfoldRes carries the per-name statuses and one summary.
	bfSFold    = 0x1B
	bfSFoldRes = 0x1C
	// Standing queries (see subscribe.go): subscribe registers one
	// query on the connection, subscribed carries its ID, and notify
	// frames push its value as the default stream moves.
	bfSubscribe  = 0x1D
	bfSubscribed = 0x1E
	bfNotify     = 0x1F
)

const (
	dataHdrLen = 12 // u64 firstIndex | u32 count (after the type byte)

	// MaxBatchValues is the largest number of float64s one data frame
	// can carry under MaxFrame. FeedBatch splits larger batches.
	MaxBatchValues = (MaxFrame - 1 - dataHdrLen) / 8
)

// Binary protocol errors. Sentinels keep the steady-state decode paths
// allocation-free; malformed frames are fatal to their connection.
var (
	errFrameTruncated = errors.New("wire: binary frame truncated")
	errFrameLength    = errors.New("wire: binary frame length inconsistent")
	errFrameType      = errors.New("wire: unknown binary frame type")
	errBatchSequence  = errors.New("wire: data batch breaks the connection's value sequence")
	errBatchTooLarge  = errors.New("wire: batch exceeds the per-frame value limit")
	errSummaryLarge   = errors.New("wire: summary exceeds the frame limit")
)

// readBinFrame reads one codec-framed body into buf (grown to its
// high-water mark and returned for reuse). The returned body aliases
// buf. io.EOF is passed through unchanged for clean closes between
// frames.
//
//swat:noalloc
func readBinFrame(r io.Reader, buf []byte) (body, newBuf []byte, err error) {
	// The header is read into the reusable buffer (and overwritten by
	// the body below): a stack array would escape through the io.Reader
	// interface and cost an allocation per frame.
	if cap(buf) < codec.HeaderLen {
		buf = make([]byte, codec.HeaderLen)
	}
	hdr := buf[:codec.HeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, buf, err
	}
	n, crc, err := codec.ParseHeader(hdr, MaxFrame)
	if err != nil {
		return nil, buf, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	body = buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, buf, err
	}
	if err := codec.Verify(crc, body); err != nil {
		return nil, buf, err
	}
	return body, buf, nil
}

// appendDataFrame appends one data frame carrying vs, whose first value
// is the connection's running index first.
//
//swat:noalloc
func appendDataFrame(dst []byte, first uint64, vs []float64) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	var hdr [1 + dataHdrLen]byte
	hdr[0] = bfData
	binary.BigEndian.PutUint64(hdr[1:], first)
	binary.BigEndian.PutUint32(hdr[9:], uint32(len(vs)))
	dst = append(dst, hdr[:]...)
	for _, v := range vs {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:]...)
	}
	return codec.Finish(dst, start)
}

// decodeDataFrame parses a data frame payload (after the type byte)
// into dst, reusing its capacity.
//
//swat:noalloc
func decodeDataFrame(payload []byte, dst []float64) (first uint64, vals []float64, err error) {
	if len(payload) < dataHdrLen {
		return 0, dst, errFrameTruncated
	}
	first = binary.BigEndian.Uint64(payload)
	count := int(binary.BigEndian.Uint32(payload[8:]))
	if count == 0 || dataHdrLen+8*count != len(payload) {
		return 0, dst, errFrameLength
	}
	if cap(dst) < count {
		dst = make([]float64, count)
	}
	vals = dst[:count]
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(payload[dataHdrLen+8*i:]))
	}
	return first, vals, nil
}

// appendQueryFrame appends one batched-query frame. Queries must be
// non-empty with matching age/weight lengths (query.Query.Validate).
//
//swat:noalloc
func appendQueryFrame(dst []byte, qs []query.Query) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfQuery)
	return codec.Finish(appendQueryTerms(dst, qs), start)
}

// appendQueryTerms appends a query frame's payload: the query count,
// then each query's term list.
//
//swat:noalloc
func appendQueryTerms(dst []byte, qs []query.Query) []byte {
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], uint32(len(qs)))
	dst = append(dst, b[:4]...)
	for i := range qs {
		binary.BigEndian.PutUint32(b[:4], uint32(len(qs[i].Ages)))
		dst = append(dst, b[:4]...)
		for j, age := range qs[i].Ages {
			binary.BigEndian.PutUint32(b[:4], uint32(age))
			dst = append(dst, b[:4]...)
			binary.BigEndian.PutUint64(b[:8], math.Float64bits(qs[i].Weights[j]))
			dst = append(dst, b[:8]...)
		}
	}
	return dst
}

// binQueryScratch is a connection's reusable decode state for batched
// queries: the Query headers plus flat backing arrays their Ages and
// Weights slices point into, all grown to high-water marks.
type binQueryScratch struct {
	qs      []query.Query
	ages    []int
	weights []float64
	answers []float64
}

// decodeQueryFrame parses a query frame payload into sc, reusing its
// buffers. Two passes: the first validates the structure and sizes the
// flat arrays, the second fills them.
//
//swat:noalloc
func decodeQueryFrame(payload []byte, sc *binQueryScratch) error {
	if len(payload) < 4 {
		return errFrameTruncated
	}
	nq := int(binary.BigEndian.Uint32(payload))
	if nq == 0 {
		return errFrameLength
	}
	off, total := 4, 0
	for i := 0; i < nq; i++ {
		if len(payload)-off < 4 {
			return errFrameTruncated
		}
		nt := int(binary.BigEndian.Uint32(payload[off:]))
		off += 4
		if nt == 0 || nt > (len(payload)-off)/12 {
			return errFrameLength
		}
		total += nt
		off += 12 * nt
	}
	if off != len(payload) {
		return errFrameLength
	}
	if cap(sc.qs) < nq {
		sc.qs = make([]query.Query, nq)
	}
	if cap(sc.ages) < total {
		sc.ages = make([]int, total)
	}
	if cap(sc.weights) < total {
		sc.weights = make([]float64, total)
	}
	sc.qs = sc.qs[:nq]
	ages, weights := sc.ages[:total], sc.weights[:total]
	off, used := 4, 0
	for i := 0; i < nq; i++ {
		nt := int(binary.BigEndian.Uint32(payload[off:]))
		off += 4
		for j := 0; j < nt; j++ {
			ages[used+j] = int(int32(binary.BigEndian.Uint32(payload[off:])))
			weights[used+j] = math.Float64frombits(binary.BigEndian.Uint64(payload[off+4:]))
			off += 12
		}
		sc.qs[i] = query.Query{
			Ages:    ages[used : used+nt : used+nt],
			Weights: weights[used : used+nt : used+nt],
		}
		used += nt
	}
	return nil
}

// appendAnswerFrame appends one answer frame carrying vals.
//
//swat:noalloc
func appendAnswerFrame(dst []byte, vals []float64) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	var b [8]byte
	b[0] = bfAnswer
	binary.BigEndian.PutUint32(b[1:5], uint32(len(vals)))
	dst = append(dst, b[:5]...)
	for _, v := range vals {
		binary.BigEndian.PutUint64(b[:8], math.Float64bits(v))
		dst = append(dst, b[:8]...)
	}
	return codec.Finish(dst, start)
}

// decodeAnswerFrame parses an answer frame payload into dst, which must
// already have the expected length (one slot per query sent).
//
//swat:noalloc
func decodeAnswerFrame(payload []byte, dst []float64) error {
	if len(payload) < 4 {
		return errFrameTruncated
	}
	n := int(binary.BigEndian.Uint32(payload))
	if n != len(dst) || 4+8*n != len(payload) {
		return errFrameLength
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(payload[4+8*i:]))
	}
	return nil
}

// StatsV2 is the server state a v2 stats frame reports: the default
// stream's tree counters plus the ingest queue's backpressure view,
// which is how a client adapts its send rate (or learns it is being
// shed).
type StatsV2 struct {
	// Arrivals, Window, Nodes, Ready are the default stream's counters.
	Arrivals int64
	Window   int
	Nodes    int
	Ready    bool
	// Policy is the server's ingest policy (block or shed).
	Policy IngestPolicy
	// QueueCap and QueueLen are the ingest queue's bound and current
	// depth, in batches.
	QueueCap int
	QueueLen int
	// EnqueuedValues counts values accepted into the queue over the
	// server's lifetime; ShedValues counts values dropped by the shed
	// policy; IngestErrors counts batches the apply side rejected.
	EnqueuedValues uint64
	ShedValues     uint64
	IngestErrors   uint64
	// Epoch is the server's ring epoch (0 until a versioned client or
	// an operator sets one); EpochRefusals counts stream frames refused
	// for carrying an older epoch — nonzero means some client routed on
	// a stale placement and was fenced.
	Epoch         uint64
	EpochRefusals uint64
}

const statsResLen = 1 + 8 + 4 + 4 + 1 + 1 + 4 + 4 + 8 + 8 + 8 + 8 + 8

// appendStatsResFrame appends one statsRes frame.
//
//swat:noalloc
func appendStatsResFrame(dst []byte, st StatsV2) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	var b [statsResLen]byte
	b[0] = bfStatsRes
	binary.BigEndian.PutUint64(b[1:], uint64(st.Arrivals))
	binary.BigEndian.PutUint32(b[9:], uint32(st.Window))
	binary.BigEndian.PutUint32(b[13:], uint32(st.Nodes))
	if st.Ready {
		b[17] = 1
	}
	b[18] = byte(st.Policy)
	binary.BigEndian.PutUint32(b[19:], uint32(st.QueueCap))
	binary.BigEndian.PutUint32(b[23:], uint32(st.QueueLen))
	binary.BigEndian.PutUint64(b[27:], st.EnqueuedValues)
	binary.BigEndian.PutUint64(b[35:], st.ShedValues)
	binary.BigEndian.PutUint64(b[43:], st.IngestErrors)
	binary.BigEndian.PutUint64(b[51:], st.Epoch)
	binary.BigEndian.PutUint64(b[59:], st.EpochRefusals)
	dst = append(dst, b[:]...)
	return codec.Finish(dst, start)
}

// decodeStatsResFrame parses a statsRes frame payload.
func decodeStatsResFrame(payload []byte) (StatsV2, error) {
	if len(payload) != statsResLen-1 {
		return StatsV2{}, errFrameLength
	}
	return StatsV2{
		Arrivals:       int64(binary.BigEndian.Uint64(payload)),
		Window:         int(binary.BigEndian.Uint32(payload[8:])),
		Nodes:          int(binary.BigEndian.Uint32(payload[12:])),
		Ready:          payload[16] == 1,
		Policy:         IngestPolicy(payload[17]),
		QueueCap:       int(binary.BigEndian.Uint32(payload[18:])),
		QueueLen:       int(binary.BigEndian.Uint32(payload[22:])),
		EnqueuedValues: binary.BigEndian.Uint64(payload[26:]),
		ShedValues:     binary.BigEndian.Uint64(payload[34:]),
		IngestErrors:   binary.BigEndian.Uint64(payload[42:]),
		Epoch:          binary.BigEndian.Uint64(payload[50:]),
		EpochRefusals:  binary.BigEndian.Uint64(payload[58:]),
	}, nil
}

// appendU64Frame appends a frame of one type byte plus a u64 payload
// (hello ack tokens, ping, pong).
//
//swat:noalloc
func appendU64Frame(dst []byte, typ byte, v uint64) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	var b [9]byte
	b[0] = typ
	binary.BigEndian.PutUint64(b[1:], v)
	dst = append(dst, b[:]...)
	return codec.Finish(dst, start)
}

// appendErrorFrame appends an error frame carrying msg.
func appendErrorFrame(dst []byte, msg string) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfError)
	dst = append(dst, msg...)
	return codec.Finish(dst, start)
}

// appendHelloFrame appends the client hello.
func appendHelloFrame(dst []byte) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfHello, binVersion)
	return codec.Finish(dst, start)
}

// appendHelloAckFrame appends the server's negotiation reply.
func appendHelloAckFrame(dst []byte, policy IngestPolicy, queueCap int) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	var b [7]byte
	b[0] = bfHelloAck
	b[1] = binVersion
	b[2] = byte(policy)
	binary.BigEndian.PutUint32(b[3:], uint32(queueCap))
	dst = append(dst, b[:]...)
	return codec.Finish(dst, start)
}
