package wire

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/multi"
	"github.com/streamsum/swat/internal/query"
)

// nopConn is a connection stub for driving the dispatch path without a
// network: writes vanish, reads report EOF.
type nopConn struct{}

type nopAddr struct{}

func (nopAddr) Network() string { return "nop" }
func (nopAddr) String() string  { return "nop" }

func (nopConn) Read([]byte) (int, error)        { return 0, net.ErrClosed }
func (nopConn) Write(p []byte) (int, error)     { return len(p), nil }
func (nopConn) Close() error                    { return nil }
func (nopConn) LocalAddr() net.Addr             { return nopAddr{} }
func (nopConn) RemoteAddr() net.Addr            { return nopAddr{} }
func (nopConn) SetDeadline(time.Time) error     { return nil }
func (nopConn) SetReadDeadline(time.Time) error { return nil }
func (nopConn) SetWriteDeadline(time.Time) error {
	return nil
}

// FuzzServerDispatch hardens the server's frame handlers against
// arbitrary client bytes. The input is read as a stream of codec frames
// and each is fed through dispatchBinary on one connection of a server
// over a monitor of its caller's, so every handler — default-stream and
// stream-addressed data and queries, summaries, folds, epochs,
// migrations and subscriptions — sees it. However corrupt or
// adversarial the frames, the server must never panic: a frame either
// gets a reply or fails the connection, and data fed afterwards runs
// the notify path through whatever subscriptions the input registered.
func FuzzServerDispatch(f *testing.F) {
	cat := func(frames ...[]byte) []byte {
		var out []byte
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	empty := func(typ byte) []byte { return codec.AppendFrame(nil, []byte{typ}) }
	q := query.Query{Ages: []int{0, 1}, Weights: []float64{1, 0.5}}
	// Well-formed traffic of every type, including a subscription
	// followed by data that triggers notifications.
	f.Add(cat(
		appendDataFrame(nil, 0, []float64{3.25, 1, 2, 4}),
		appendQueryFrame(nil, []query.Query{q}),
		empty(bfStats),
		empty(bfSumReq),
		appendU64Frame(nil, bfPing, 7),
	))
	f.Add(cat(
		appendSubscribeFrame(nil, q, 0.5),
		appendDataFrame(nil, 0, []float64{1, 100, 3}),
		appendDataFrame(nil, 3, []float64{-50}),
	))
	f.Add(cat(
		appendStreamDataFrame(nil, "cpu", 0, []float64{1, 2, 3, 4}),
		appendStreamPointsFrame(nil, 0, 0, []string{"cpu", "mem"}),
		appendStreamSumFrame(nil, "cpu", 0),
		appendStreamFoldFrame(nil, 0, core.MergeOptions{ValueHi: 10}, []string{"cpu", "mem"}, []int64{4, 0}),
	))
	f.Add(cat(
		appendEpochFrame(nil, 1, 5),
		appendStreamDataFrame(nil, "cpu", 3, []float64{1}),
		appendEpochFrame(nil, 0, 0),
	))
	f.Add(cat(
		appendStreamDataFrame(nil, "cpu", 0, []float64{1, 2}),
		appendMigReadFrame(nil, "cpu", 0, 0, 64),
		appendMigWriteFrame(nil, "disk", 0, 16, 0xBEEF, []byte("partial")),
		appendMigStatFrame(nil, "disk"),
		appendMigCommitFrame(nil, "disk", 16, 0xBEEF, 0),
	))
	// Malformed and adversarial traffic: hostile counts and names,
	// invalid subscriptions, sequence breaks, unknown types.
	f.Add(appendSubscribeFrame(nil, query.Query{Ages: []int{-3}, Weights: []float64{1}}, 1))
	f.Add(appendSubscribeFrame(nil, q, -3))
	f.Add(cat(appendDataFrame(nil, 0, []float64{1}), appendDataFrame(nil, 9, []float64{2})))
	// Unnamed data and sdata interleaved on one connection, ending with
	// an sdata frame that names the default stream.
	f.Add(cat(
		appendDataFrame(nil, 0, []float64{1, 2}),
		appendStreamDataFrame(nil, "cpu", 0, []float64{3, 4}),
		appendDataFrame(nil, 2, []float64{5}),
		appendQueryFrame(nil, []query.Query{q}),
		appendStreamDataFrame(nil, "", 0, []float64{6}),
	))
	hostile := func(typ byte, fields ...[]byte) []byte {
		b := []byte{typ}
		for _, fl := range fields {
			b = append(b, fl...)
		}
		return codec.AppendFrame(nil, b)
	}
	u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	u16 := func(v uint16) []byte { return binary.BigEndian.AppendUint16(nil, v) }
	f.Add(hostile(bfQuery, u32(0xFFFFFFFF), u32(1)))
	f.Add(hostile(bfSPoint, make([]byte, 12), u32(0xFFFFFFFF), u16(1), []byte("s")))
	f.Add(hostile(bfSFold, make([]byte, 24), u32(1), u16(0xFFFF), []byte("s")))
	f.Add(hostile(bfSData, make([]byte, 8), u16(0), u32(1), make([]byte, 8)))
	f.Add(hostile(bfMigWrite, u16(1), []byte("s"), make([]byte, 8), u32(0xFFFFFFFF), u32(0xFFFFFFFF), u32(0), u32(0xFFFFFF)))
	f.Add(hostile(bfSubscribe, make([]byte, 8), u32(2), u32(1), make([]byte, 12), u32(1), make([]byte, 12)))
	f.Add(hostile(0x7F, []byte("no-such-op")))

	f.Fuzz(func(t *testing.T, data []byte) {
		srv, err := NewServer(core.Options{WindowSize: 16, Coefficients: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv.Logf = func(string, ...any) {}
		mon, err := multi.New(multi.Options{WindowSize: 16, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.UseMonitor(mon); err != nil {
			t.Fatal(err)
		}
		srv.lnMu.Lock()
		srv.startIngestLocked()
		srv.lnMu.Unlock()
		bc := &binConn{conn: nopConn{}}
		r := bytes.NewReader(data)
		for frames := 0; frames < 64; frames++ {
			body, buf, err := readBinFrame(r, bc.rbuf)
			bc.rbuf = buf
			if err != nil {
				break // corrupt framing: the connection would drop here
			}
			if err := srv.dispatchBinary(bc, body); err != nil {
				break // a fatal frame: the connection would drop here
			}
		}
		// Whatever subscriptions survived, pushing data through the
		// notify path must hold up too.
		for i := 0; i < 20; i++ {
			srv.Feed(float64(i) * 1.5)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := mon.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
