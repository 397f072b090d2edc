package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
)

// BinClient is a synchronous v2 binary connection to a wire.Server.
// Its buffers are reused across calls, so steady-state FeedBatch and
// QueryBatch perform no allocations. It is not safe for concurrent
// use; open one BinClient per goroutine.
type BinClient struct {
	conn net.Conn
	// bw buffers the send side so a stream of small data frames costs
	// one syscall per buffer, not per frame. Data frames may sit in the
	// buffer until it fills; every round trip (QueryBatch, Stats, Ping)
	// flushes first, and Flush forces delivery explicitly.
	bw   *bufio.Writer
	rbuf []byte
	wbuf []byte

	// next is the running value index the next FeedBatch will claim.
	next uint64

	// epoch stamps every stream-addressed frame with the client's ring
	// version (see SetEpoch and migrate.go); 0 sends unversioned.
	epoch uint64

	// policy and queueCap are the server's negotiated backpressure
	// parameters from the hello ack.
	policy   IngestPolicy
	queueCap int
}

// RemoteError is an error frame the server sent in reply: the
// connection is healthy and the frame was understood but refused (cold
// tree, unknown stream, oversize summary). Retry layers (BinPool.Do,
// the cluster client) treat it as non-retriable — redialing cannot
// change the server's answer — unlike transport errors, which poison
// the connection.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "wire: server: " + e.Msg }

// HandshakeTimeout bounds the v2 hello/helloAck exchange in
// DialBinary. A server that accepted the TCP connection but stalled
// before acking would otherwise park the dial — and any pool Get
// queued behind it — forever.
const HandshakeTimeout = 10 * time.Second

// DialBinary connects to a server and negotiates protocol v2. Servers
// predating v2 close the connection on the magic, which surfaces here
// as a handshake error rather than silent misbehavior. The handshake
// runs under HandshakeTimeout; the deadline is cleared once the ack
// arrives.
func DialBinary(addr string) (*BinClient, error) {
	return DialBinaryContext(context.Background(), addr)
}

// DialBinaryContext is DialBinary under a context: the TCP connect
// respects ctx cancellation, and the handshake deadline is the earlier
// of HandshakeTimeout and the context deadline. This is what lets a
// Rebalance cap total time lost to a dead node — without it a connect
// to a black-holed address can park for the OS's SYN-retry budget.
func DialBinaryContext(ctx context.Context, addr string) (*BinClient, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	hdl := time.Now().Add(HandshakeTimeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(hdl) {
		hdl = cd
	}
	conn.SetDeadline(hdl)
	c := &BinClient{conn: conn, bw: bufio.NewWriterSize(conn, 64<<10)}
	c.wbuf = append(c.wbuf, binMagic[:]...)
	c.wbuf = appendHelloFrame(c.wbuf)
	if _, err := c.bw.Write(c.wbuf); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: v2 hello: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: v2 hello: %w", err)
	}
	body, rbuf, err := readBinFrame(conn, c.rbuf)
	c.rbuf = rbuf
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: v2 handshake: %w", err)
	}
	if len(body) == 7 && body[0] == bfHelloAck && body[1] == binVersion {
		c.policy = IngestPolicy(body[2])
		c.queueCap = int(binary.BigEndian.Uint32(body[3:]))
		if err := conn.SetDeadline(time.Time{}); err != nil {
			conn.Close()
			return nil, fmt.Errorf("wire: v2 handshake: %w", err)
		}
		return c, nil
	}
	defer conn.Close()
	if len(body) > 1 && body[0] == bfError {
		return nil, &RemoteError{Msg: string(body[1:])}
	}
	return nil, errors.New("wire: malformed v2 hello ack")
}

// Flush pushes any buffered data frames to the server.
func (c *BinClient) Flush() error { return c.bw.Flush() }

// Close flushes buffered frames best-effort and closes the connection.
func (c *BinClient) Close() error {
	ferr := c.bw.Flush()
	if err := c.conn.Close(); err != nil {
		return err
	}
	return ferr
}

// ServerPolicy returns the backpressure policy the server negotiated.
func (c *BinClient) ServerPolicy() IngestPolicy { return c.policy }

// ServerQueueCap returns the server's ingest queue bound, in batches.
func (c *BinClient) ServerQueueCap() int { return c.queueCap }

// FeedBatch streams a batch of consecutive values, one-way: no
// round-trip, no per-value envelope. Batches above MaxBatchValues are
// split across frames. Frames are write-buffered — small batches may
// sit until the buffer fills, a round trip runs, or Flush is called.
// Whether the values were applied or shed is visible through Stats;
// use Ping to bound delivery.
//
//swat:noalloc
func (c *BinClient) FeedBatch(vs []float64) error {
	for len(vs) > MaxBatchValues {
		if err := c.FeedBatch(vs[:MaxBatchValues]); err != nil {
			return err
		}
		vs = vs[MaxBatchValues:]
	}
	if len(vs) == 0 {
		return nil
	}
	c.wbuf = appendDataFrame(c.wbuf[:0], c.next, vs)
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return err
	}
	c.next += uint64(len(vs))
	return nil
}

// Sent returns how many values this connection has streamed.
func (c *BinClient) Sent() uint64 { return c.next }

// SetDeadline bounds every pending and future I/O on the connection
// (both directions). Scatter-gather readers use it as the per-node
// query budget; a deadline hit surfaces as a transport error, so pool
// retry logic discards the connection.
func (c *BinClient) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// FeedStream streams a batch of values for the named stream, one-way
// like FeedBatch but stream-addressed: the server routes it to that
// stream of its monitor (registering unknown names on first use).
// There is no per-connection sequence — batches for many streams
// interleave — so delivery accounting is per stream at the sender, and
// Ping bounds delivery of everything written before it. Oversize
// batches are split.
//
//swat:noalloc
func (c *BinClient) FeedStream(name string, vs []float64) error {
	if len(name) == 0 || len(name) > maxStreamName {
		return errStreamName
	}
	limit := streamBatchLimit(name)
	for len(vs) > limit {
		if err := c.FeedStream(name, vs[:limit]); err != nil {
			return err
		}
		vs = vs[limit:]
	}
	if len(vs) == 0 {
		return nil
	}
	c.wbuf = appendStreamDataFrame(c.wbuf[:0], name, c.epoch, vs)
	_, err := c.bw.Write(c.wbuf)
	return err
}

// StreamPoint runs a bounded point query against the named stream: the
// value at the given age, a guaranteed error bound (non-zero after
// merges or shed ingest), and the stream tree's arrival count. It is a
// one-name StreamPoints; a refusal returns as the *RemoteError.
func (c *BinClient) StreamPoint(name string, age int) (val, bound float64, arrivals int64, err error) {
	var res [1]StreamPointResult
	if err := c.StreamPoints([]string{name}, age, res[:]); err != nil {
		return 0, 0, 0, err
	}
	return res[0].Value, res[0].Bound, res[0].Arrivals, res[0].Err
}

// StreamPoints runs a bounded point query at age against every named
// stream into dst (len(dst) must equal len(names)), in one spoint frame
// unless the request or its worst-case reply would outgrow MaxFrame.
// Server refusals, per stream or per frame, land in the entries' Err;
// the returned error is a transport or framing failure, after which
// dst is unspecified. Runs under the caller's SetDeadline.
//
//swat:noalloc
func (c *BinClient) StreamPoints(names []string, age int, dst []StreamPointResult) error {
	if len(dst) != len(names) {
		return fmt.Errorf("wire: %d answer slots for %d streams", len(dst), len(names))
	}
	for _, name := range names {
		if len(name) == 0 || len(name) > maxStreamName {
			return errStreamName
		}
	}
	for len(names) > 0 {
		k := spointFit(names)
		if err := c.streamPointsFrame(names[:k], age, dst[:k]); err != nil {
			return err
		}
		names, dst = names[k:], dst[k:]
	}
	return nil
}

// streamPointsFrame is one spoint/spointRes round trip.
//
//swat:noalloc
//swat:deadline-held
func (c *BinClient) streamPointsFrame(names []string, age int, dst []StreamPointResult) error {
	c.wbuf = appendStreamPointsFrame(c.wbuf[:0], c.epoch, age, names)
	body, err := c.roundTripBin()
	if err != nil {
		var remote *RemoteError
		if !errors.As(err, &remote) {
			return err
		}
		for i := range dst {
			dst[i] = StreamPointResult{Err: remote}
		}
		return nil
	}
	if body[0] != bfSPointRes {
		return errFrameType
	}
	return decodeStreamPointsRes(body[1:], dst)
}

// FoldStreams asks the server to fold the named streams into one
// summary of their time-aligned sum (multi.Monitor.FoldSummary), each
// first advanced to sent[i], the count this client shipped for it.
// Refusals, per stream or per frame, land in refused[i] as a
// *RemoteError and leave that stream out; the summary is nil when
// nothing folded. The request is one sfold frame unless it, or its
// worst-case reply for the fleet's tree geometry geo, would outgrow
// MaxFrame; the partials of a split fold in request order. The
// returned error is a transport, framing or fold failure, after which
// refused is unspecified. Runs under the caller's SetDeadline.
func (c *BinClient) FoldStreams(geo core.Options, names []string, sent []int64, o core.MergeOptions, refused []error) (*core.Summary, error) {
	if len(sent) != len(names) || len(refused) != len(names) {
		return nil, fmt.Errorf("wire: fold of %d streams given %d sent counts and %d refusal slots", len(names), len(sent), len(refused))
	}
	for _, name := range names {
		if len(name) == 0 || len(name) > maxStreamName {
			return nil, errStreamName
		}
	}
	sumMax, err := core.MaxSummaryLen(geo)
	if err != nil {
		return nil, err
	}
	var acc *core.Summary
	for len(names) > 0 {
		k := sfoldFit(names, sumMax)
		if k == 0 {
			return nil, errSummaryLarge
		}
		part, err := c.streamFoldFrame(names[:k], sent[:k], o, refused[:k])
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = part
		} else if part != nil {
			if acc, err = core.Accumulate(acc, part, o); err != nil {
				return nil, err
			}
		}
		names, sent, refused = names[k:], sent[k:], refused[k:]
	}
	return acc, nil
}

// streamFoldFrame is one sfold/sfoldRes round trip, returning the
// decoded partial summary (nil when nothing folded).
//
//swat:deadline-held
func (c *BinClient) streamFoldFrame(names []string, sent []int64, o core.MergeOptions, refused []error) (*core.Summary, error) {
	c.wbuf = appendStreamFoldFrame(c.wbuf[:0], c.epoch, o, names, sent)
	body, err := c.roundTripBin()
	if err != nil {
		var remote *RemoteError
		if !errors.As(err, &remote) {
			return nil, err
		}
		for i := range refused {
			refused[i] = remote
		}
		return nil, nil
	}
	if body[0] != bfSFoldRes {
		return nil, errFrameType
	}
	sum, err := decodeStreamFoldRes(body[1:], refused)
	if err != nil || sum == nil {
		return nil, err
	}
	return core.DecodeSummary(sum)
}

// FetchStreamSummary fetches the named stream's mergeable summary,
// detached from the client's buffers (see FetchSummary).
func (c *BinClient) FetchStreamSummary(name string) (*core.Summary, error) {
	if len(name) == 0 || len(name) > maxStreamName {
		return nil, errStreamName
	}
	c.wbuf = appendStreamSumFrame(c.wbuf[:0], name, c.epoch)
	body, err := c.roundTripBin()
	if err != nil {
		return nil, err
	}
	if len(body) < 1 || body[0] != bfSumRes {
		return nil, errFrameType
	}
	return core.DecodeSummary(body[1:])
}

// roundTripBin writes wbuf (flushing any buffered data frames ahead of
// it) and reads one response frame, surfacing server error frames as
// errors. Callers bound the round trip: BinPool.Do and the cluster
// gathers arm SetDeadline around every call, and standalone users own
// the deadline policy for their connection.
//
//swat:noalloc
//swat:deadline-held
func (c *BinClient) roundTripBin() ([]byte, error) {
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	body, rbuf, err := readBinFrame(c.conn, c.rbuf)
	c.rbuf = rbuf
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, errFrameTruncated
	}
	if body[0] == bfError {
		return nil, &RemoteError{Msg: string(body[1:])}
	}
	return body, nil
}

// QueryBatch evaluates qs on the server in one frame, writing answers
// into dst (len(dst) must equal len(qs)). All queries are answered
// against a single consistent tree state.
//
//swat:noalloc
func (c *BinClient) QueryBatch(qs []query.Query, dst []float64) error {
	if len(dst) != len(qs) {
		return fmt.Errorf("wire: %d answer slots for %d queries", len(dst), len(qs))
	}
	if len(qs) == 0 {
		return nil
	}
	c.wbuf = appendQueryFrame(c.wbuf[:0], qs)
	body, err := c.roundTripBin()
	if err != nil {
		return err
	}
	if body[0] != bfAnswer {
		return errFrameType
	}
	return decodeAnswerFrame(body[1:], dst)
}

// Stats fetches the default stream's counters and the server's
// backpressure state.
func (c *BinClient) Stats() (StatsV2, error) {
	c.wbuf = codec.Finish(append(codec.Begin(c.wbuf[:0]), bfStats), 0)
	body, err := c.roundTripBin()
	if err != nil {
		return StatsV2{}, err
	}
	if body[0] != bfStatsRes {
		return StatsV2{}, errFrameType
	}
	return decodeStatsResFrame(body[1:])
}

// FetchSummary fetches the server tree's mergeable summary: the full
// SWAT state in O(k log N) bytes, decoded and validated locally. The
// result is detached from the client's buffers, so it stays valid
// across further calls — feed it to core.MergeSummaries (or
// Tree.MergeSummary) to roll several servers' streams into one tree.
func (c *BinClient) FetchSummary() (*core.Summary, error) {
	c.wbuf = codec.Finish(append(codec.Begin(c.wbuf[:0]), bfSumReq), 0)
	body, err := c.roundTripBin()
	if err != nil {
		return nil, err
	}
	if len(body) < 1 || body[0] != bfSumRes {
		return nil, errFrameType
	}
	return core.DecodeSummary(body[1:])
}

// Ping round-trips a token through the server's connection handler and
// returns the elapsed time. Under the block policy a full ingest queue
// stalls the handler, so ping latency is the live backpressure signal:
// it covers every data frame sent before it on this connection.
func (c *BinClient) Ping() (time.Duration, error) {
	start := time.Now()
	c.wbuf = appendU64Frame(c.wbuf[:0], bfPing, uint64(start.UnixNano()))
	body, err := c.roundTripBin()
	if err != nil {
		return 0, err
	}
	if len(body) != 9 || body[0] != bfPong {
		return 0, errFrameType
	}
	if got := binary.BigEndian.Uint64(body[1:]); got != uint64(start.UnixNano()) {
		return 0, errors.New("wire: pong token mismatch")
	}
	return time.Since(start), nil
}
