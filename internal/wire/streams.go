package wire

// Stream-addressed v2 frame codecs: the encoding layer of the cluster
// data plane. A swatd fronting a multi.Monitor owns many independent
// streams; these frames name the stream they target, so one connection
// can interleave traffic for any number of streams a consistent-hash
// ring placed on this node (see internal/cluster). Each starts with a
// ring epoch, then a length-prefixed UTF-8 name (spoint and sfold: a
// list of them, one batched point query or one roll-up fold for every
// stream a node owns).
//
// The u64 epoch after the type byte is the sender's ring version (see
// cluster.Ring.Epoch): placement fencing for live resharding. Epoch 0
// means "unversioned" and is always accepted; otherwise the server
// compares against its own epoch and refuses frames from older rings,
// so a client routing on a stale placement is detected instead of
// having its values double-counted across two owners (see migrate.go
// for the server-side rules).

import (
	"encoding/binary"
	"errors"
	"math"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
)

// maxStreamName bounds stream names on the wire. Long names would eat
// into the per-frame value budget and make the server's name→ref cache
// an amplification vector.
const maxStreamName = 256

var errStreamName = errors.New("wire: stream name empty or over the length limit")

// streamBatchLimit is the largest number of float64s one sdata frame
// can carry for a name of the given length under MaxFrame (type byte,
// epoch, name prefix, count).
//
//swat:noalloc
func streamBatchLimit(name string) int {
	return (MaxFrame - 1 - 8 - 2 - len(name) - 4) / 8
}

// appendEpoch appends the u64 ring epoch that leads every
// stream-addressed frame payload.
//
//swat:noalloc
func appendEpoch(dst []byte, epoch uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], epoch)
	return append(dst, b[:]...)
}

// splitEpoch parses the leading u64 ring epoch off a stream frame
// payload.
//
//swat:noalloc
func splitEpoch(payload []byte) (epoch uint64, rest []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, errFrameTruncated
	}
	return binary.BigEndian.Uint64(payload), payload[8:], nil
}

// appendStreamName appends the u16 length-prefixed name.
//
//swat:noalloc
func appendStreamName(dst []byte, name string) []byte {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(len(name)))
	dst = append(dst, b[:]...)
	return append(dst, name...)
}

// splitStreamName parses a u16 length-prefixed name off the front of
// payload. The returned name aliases payload — copy before retaining.
//
//swat:noalloc
func splitStreamName(payload []byte) (name, rest []byte, err error) {
	if len(payload) < 2 {
		return nil, nil, errFrameTruncated
	}
	n := int(binary.BigEndian.Uint16(payload))
	if n == 0 || n > maxStreamName {
		return nil, nil, errStreamName
	}
	if len(payload)-2 < n {
		return nil, nil, errFrameTruncated
	}
	return payload[2 : 2+n], payload[2+n:], nil
}

// appendStreamDataFrame appends one sdata frame carrying vs for the
// named stream. Unlike appendDataFrame there is no running index: the
// frame is one-way and unordered across streams; senders that need
// delivery accounting track per-stream sent counts and bound delivery
// with Ping (FIFO per connection still holds).
//
//swat:noalloc
func appendStreamDataFrame(dst []byte, name string, epoch uint64, vs []float64) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfSData)
	dst = appendEpoch(dst, epoch)
	dst = appendStreamName(dst, name)
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], uint32(len(vs)))
	dst = append(dst, b[:4]...)
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:8]...)
	}
	return codec.Finish(dst, start)
}

// decodeStreamDataFrame parses an sdata frame payload (after the type
// byte) into dst, reusing its capacity. The returned name aliases
// payload.
//
//swat:noalloc
func decodeStreamDataFrame(payload []byte, dst []float64) (name []byte, epoch uint64, vals []float64, err error) {
	epoch, payload, err = splitEpoch(payload)
	if err != nil {
		return nil, 0, dst, err
	}
	name, rest, err := splitStreamName(payload)
	if err != nil {
		return nil, 0, dst, err
	}
	if len(rest) < 4 {
		return nil, 0, dst, errFrameTruncated
	}
	count := int(binary.BigEndian.Uint32(rest))
	if count == 0 || 4+8*count != len(rest) {
		return nil, 0, dst, errFrameLength
	}
	if cap(dst) < count {
		dst = make([]float64, count)
	}
	vals = dst[:count]
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(rest[4+8*i:]))
	}
	return name, epoch, vals, nil
}

// Batched point frames (spoint/spointRes). Refusal messages are capped
// at maxRefusalMsg bytes, so the reply to n names is at most
// spointResHdr + n·spointEntryMax and the client can split a request
// before either frame outgrows MaxFrame.
const (
	maxRefusalMsg  = 125
	spointHdr      = 1 + 8 + 4 + 4 // type, epoch, age, count
	spointResHdr   = 1 + 4         // type, count
	spointOKLen    = 1 + 8 + 8 + 8 // status, value, bound, arrivals
	spointEntryMax = 1 + 2 + maxRefusalMsg
)

// StreamPointResult is one stream's answer from a StreamPoints batch:
// |Value − truth| <= Bound, and the stream tree's arrival count. Err is
// the server's refusal of this stream, a *RemoteError (unknown stream,
// cold tree, or a stale ring epoch refusing the whole frame).
type StreamPointResult struct {
	Value, Bound float64
	Arrivals     int64
	Err          error
}

// spointFit returns how many names, from the front, one spoint frame
// carries with both it and its worst-case reply under MaxFrame (at
// least one: names are at most maxStreamName bytes).
//
//swat:noalloc
func spointFit(names []string) int {
	size := spointHdr
	for i, name := range names {
		size += 2 + len(name)
		if size > MaxFrame || spointResHdr+(i+1)*spointEntryMax > MaxFrame {
			return i
		}
	}
	return len(names)
}

// appendStreamPointsFrame appends one spoint frame asking for the
// bounded point at age of every named stream.
//
//swat:noalloc
func appendStreamPointsFrame(dst []byte, epoch uint64, age int, names []string) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfSPoint)
	dst = appendEpoch(dst, epoch)
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], uint32(age))
	binary.BigEndian.PutUint32(b[4:], uint32(len(names)))
	dst = append(dst, b[:]...)
	for _, name := range names {
		dst = appendStreamName(dst, name)
	}
	return codec.Finish(dst, start)
}

// decodeStreamPointsFrame validates an spoint payload (after the type
// byte). names is the still-encoded list of n names, aliasing payload,
// for walking with splitStreamName. A count the payload cannot hold
// (every name costs at least three bytes), or whose worst-case reply
// would outgrow MaxFrame, is refused before the walk.
//
//swat:noalloc
func decodeStreamPointsFrame(payload []byte) (epoch uint64, age, n int, names []byte, err error) {
	epoch, payload, err = splitEpoch(payload)
	if err != nil || len(payload) < 8 {
		return 0, 0, 0, nil, errFrameTruncated
	}
	age = int(int32(binary.BigEndian.Uint32(payload)))
	n = int(binary.BigEndian.Uint32(payload[4:]))
	names = payload[8:]
	if n == 0 || n > len(names)/3 || spointResHdr+n*spointEntryMax > MaxFrame {
		return 0, 0, 0, nil, errFrameLength
	}
	rest := names
	for i := 0; i < n; i++ {
		if _, rest, err = splitStreamName(rest); err != nil {
			return 0, 0, 0, nil, err
		}
	}
	if len(rest) != 0 {
		return 0, 0, 0, nil, errFrameLength
	}
	return epoch, age, n, names, nil
}

// beginStreamPointsRes opens an spointRes frame for n entries; append
// them with appendStreamPointOK/appendRefusal, then codec.Finish from
// len(dst) on entry.
//
//swat:noalloc
func beginStreamPointsRes(dst []byte, n int) []byte {
	dst = codec.Begin(dst)
	var b [spointResHdr]byte
	b[0] = bfSPointRes
	binary.BigEndian.PutUint32(b[1:], uint32(n))
	return append(dst, b[:]...)
}

// appendStreamPointOK appends one answered spointRes entry.
//
//swat:noalloc
func appendStreamPointOK(dst []byte, val, bound float64, arrivals int64) []byte {
	var b [spointOKLen]byte
	b[0] = 1
	binary.BigEndian.PutUint64(b[1:], math.Float64bits(val))
	binary.BigEndian.PutUint64(b[9:], math.Float64bits(bound))
	binary.BigEndian.PutUint64(b[17:], uint64(arrivals))
	return append(dst, b[:]...)
}

// appendRefusal appends one refused spointRes or sfoldRes entry, its
// message cut to maxRefusalMsg bytes.
//
//swat:noalloc
func appendRefusal(dst []byte, msg string) []byte {
	if len(msg) > maxRefusalMsg {
		msg = msg[:maxRefusalMsg]
	}
	var b [3]byte
	binary.BigEndian.PutUint16(b[1:], uint16(len(msg)))
	dst = append(dst, b[:]...)
	return append(dst, msg...)
}

// splitRefusal parses one refused entry, status byte included, off the
// front of payload. The message aliases payload.
//
//swat:noalloc
func splitRefusal(payload []byte) (msg, rest []byte, err error) {
	if len(payload) < 3 || payload[0] != 0 {
		return nil, nil, errFrameLength
	}
	n := int(binary.BigEndian.Uint16(payload[1:]))
	if n > maxRefusalMsg || len(payload)-3 < n {
		return nil, nil, errFrameLength
	}
	return payload[3 : 3+n], payload[3+n:], nil
}

// decodeStreamPointsRes parses an spointRes payload into dst, which
// holds one slot per name sent. Refusals become *RemoteError entries,
// the only allocation, and off the healthy path.
//
//swat:noalloc
func decodeStreamPointsRes(payload []byte, dst []StreamPointResult) error {
	if len(payload) < 4 {
		return errFrameTruncated
	}
	if int(binary.BigEndian.Uint32(payload)) != len(dst) {
		return errFrameLength
	}
	payload = payload[4:]
	for i := range dst {
		switch {
		case len(payload) >= spointOKLen && payload[0] == 1:
			dst[i] = StreamPointResult{
				Value:    math.Float64frombits(binary.BigEndian.Uint64(payload[1:])),
				Bound:    math.Float64frombits(binary.BigEndian.Uint64(payload[9:])),
				Arrivals: int64(binary.BigEndian.Uint64(payload[17:])),
			}
			payload = payload[spointOKLen:]
		default:
			msg, rest, err := splitRefusal(payload)
			if err != nil {
				return err
			}
			dst[i] = StreamPointResult{Err: remoteError(msg)}
			payload = rest
		}
	}
	if len(payload) != 0 {
		return errFrameLength
	}
	return nil
}

// remoteError detaches a refusal message from the read buffer.
func remoteError(msg []byte) error { return &RemoteError{Msg: string(msg)} }

// Batched fold frames (sfold/sfoldRes). The request carries the
// client's sent count per name; the reply carries one status per name,
// refusals as in spointRes, then one summary of the folded streams. The
// summary's size depends only on the geometry, so the reply to n names
// is at most sfoldResHdr + n·spointEntryMax + core.MaxSummaryLen.
const (
	sfoldHdr      = 1 + 8 + 8 + 8 + 4 // type, epoch, lo, hi, count
	sfoldResHdr   = 1 + 4             // type, count
	sfoldEntryMin = 2 + 1 + 8         // nameLen, a one-byte name, sent
)

// sfoldFit returns how many names, from the front, one sfold frame
// carries with both it and its worst-case reply — sumMax bytes of
// summary after the statuses — under MaxFrame; 0 when not even one
// name fits beside the summary.
//
//swat:noalloc
func sfoldFit(names []string, sumMax int) int {
	size := sfoldHdr
	for i, name := range names {
		size += 2 + len(name) + 8
		if size > MaxFrame || sfoldResHdr+(i+1)*spointEntryMax+sumMax > MaxFrame {
			return i
		}
	}
	return len(names)
}

// appendStreamFoldFrame appends one sfold frame asking the server to
// fold the named streams, each advanced to its sent count, with o's
// declared value range.
//
//swat:noalloc
func appendStreamFoldFrame(dst []byte, epoch uint64, o core.MergeOptions, names []string, sent []int64) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfSFold)
	dst = appendEpoch(dst, epoch)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(o.ValueLo))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(o.ValueHi))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(names)))
	for i, name := range names {
		dst = appendStreamName(dst, name)
		dst = binary.BigEndian.AppendUint64(dst, uint64(sent[i]))
	}
	return codec.Finish(dst, start)
}

// decodeStreamFoldFrame validates an sfold payload (after the type
// byte). entries is the still-encoded list of n (name, sent) pairs,
// aliasing payload, for walking with splitFoldEntry. A count the
// payload cannot hold, or whose statuses alone could outgrow MaxFrame,
// is refused before the walk.
//
//swat:noalloc
func decodeStreamFoldFrame(payload []byte) (epoch uint64, o core.MergeOptions, n int, entries []byte, err error) {
	epoch, payload, err = splitEpoch(payload)
	if err != nil || len(payload) < 20 {
		return 0, core.MergeOptions{}, 0, nil, errFrameTruncated
	}
	o.ValueLo = math.Float64frombits(binary.BigEndian.Uint64(payload))
	o.ValueHi = math.Float64frombits(binary.BigEndian.Uint64(payload[8:]))
	n = int(binary.BigEndian.Uint32(payload[16:]))
	entries = payload[20:]
	if n == 0 || n > len(entries)/sfoldEntryMin || sfoldResHdr+n*spointEntryMax > MaxFrame {
		return 0, core.MergeOptions{}, 0, nil, errFrameLength
	}
	rest := entries
	for i := 0; i < n; i++ {
		if _, _, rest, err = splitFoldEntry(rest); err != nil {
			return 0, core.MergeOptions{}, 0, nil, err
		}
	}
	if len(rest) != 0 {
		return 0, core.MergeOptions{}, 0, nil, errFrameLength
	}
	return epoch, o, n, entries, nil
}

// splitFoldEntry parses one (name, sent) pair off the front of an
// sfold entry list. The name aliases payload.
//
//swat:noalloc
func splitFoldEntry(payload []byte) (name []byte, sent int64, rest []byte, err error) {
	name, rest, err = splitStreamName(payload)
	if err != nil {
		return nil, 0, nil, err
	}
	if len(rest) < 8 {
		return nil, 0, nil, errFrameTruncated
	}
	return name, int64(binary.BigEndian.Uint64(rest)), rest[8:], nil
}

// beginStreamFoldRes opens an sfoldRes frame for n statuses; append
// them (a 1 byte per folded stream, appendRefusal per refused one) and
// the folded summary, then codec.Finish from len(dst) on entry.
//
//swat:noalloc
func beginStreamFoldRes(dst []byte, n int) []byte {
	dst = codec.Begin(dst)
	var b [sfoldResHdr]byte
	b[0] = bfSFoldRes
	binary.BigEndian.PutUint32(b[1:], uint32(n))
	return append(dst, b[:]...)
}

// decodeStreamFoldRes parses an sfoldRes payload: refused holds one
// slot per name sent and gets nil for a folded stream, a *RemoteError
// for a refused one. sum is the encoded summary of the folded streams,
// aliasing payload, and nil exactly when none folded.
func decodeStreamFoldRes(payload []byte, refused []error) (sum []byte, err error) {
	if len(payload) < 4 {
		return nil, errFrameTruncated
	}
	if int(binary.BigEndian.Uint32(payload)) != len(refused) {
		return nil, errFrameLength
	}
	payload = payload[4:]
	folded := false
	for i := range refused {
		if len(payload) > 0 && payload[0] == 1 {
			refused[i] = nil
			folded = true
			payload = payload[1:]
			continue
		}
		msg, rest, err := splitRefusal(payload)
		if err != nil {
			return nil, err
		}
		refused[i] = remoteError(msg)
		payload = rest
	}
	if folded != (len(payload) > 0) {
		return nil, errFrameLength // a summary without a folded stream, or the reverse
	}
	if !folded {
		return nil, nil
	}
	return payload, nil
}

// appendStreamSumFrame appends one ssum frame requesting the named
// stream's summary; the server replies with an ordinary sumRes frame.
//
//swat:noalloc
func appendStreamSumFrame(dst []byte, name string, epoch uint64) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfSSum)
	dst = appendEpoch(dst, epoch)
	dst = appendStreamName(dst, name)
	return codec.Finish(dst, start)
}
