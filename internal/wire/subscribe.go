package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/query"
)

// Standing-query support over the wire: a client sends a subscribe
// frame and then receives asynchronous notify frames whenever the
// server's default stream advances and the query's value changes by at least the
// subscription's minChange. This is the continuous-query mode of the
// paper ("we can extend our algorithms to continuous queries", §2.1)
// exposed over a real network, on frames subscribe, subscribed and
// notify (see binary.go's frame table).

// subscriber tracks one connection's standing queries. Once a
// connection has subscribed, mu serializes every frame written to it —
// its handler's replies (binWrite) and the notify pushes of the ingest
// worker, Feed and Close — and guards subs, next and wbuf.
type subscriber struct {
	conn net.Conn
	mu   sync.Mutex
	wbuf []byte
	subs map[int]*wireSub
	next int
}

type wireSub struct {
	q         query.Query
	minChange float64
	last      float64
	fired     bool
}

// subscribers holds the server's standing-query registrations.
type subscribers struct {
	mu     sync.Mutex
	byConn map[net.Conn]*subscriber
}

// dropConn removes all of a connection's subscriptions (on disconnect).
func (s *Server) dropConn(conn net.Conn) {
	state := s.subscribers
	state.mu.Lock()
	defer state.mu.Unlock()
	delete(state.byConn, conn)
}

// hasSubscribers reports whether any standing query is registered, so
// the binary ingest worker can skip the notify pass (and its snapshot
// slice) entirely on the common subscriber-free path.
func (s *Server) hasSubscribers() bool {
	s.subscribers.mu.Lock()
	defer s.subscribers.mu.Unlock()
	return len(s.subscribers.byConn) > 0
}

// subscriberList snapshots the subscribed connections, so pushes run
// without the registry lock.
func (s *Server) subscriberList() []*subscriber {
	state := s.subscribers
	state.mu.Lock()
	defer state.mu.Unlock()
	out := make([]*subscriber, 0, len(state.byConn))
	for _, sub := range state.byConn {
		out = append(out, sub)
	}
	return out
}

// notifySubscribers evaluates all standing queries against the default
// stream's current tree and pushes notify frames for those whose value moved. Called
// with s.mu held right after a data update.
func (s *Server) notifySubscribers() {
	arrivals := s.def.tree.Arrivals()
	for _, sub := range s.subscriberList() {
		sub.mu.Lock()
		sub.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		for id, ws := range sub.subs {
			v, err := s.def.tree.InnerProduct(ws.q.Ages, ws.q.Weights)
			if err != nil {
				continue // not answerable yet
			}
			if ws.fired && math.Abs(v-ws.last) < ws.minChange {
				continue
			}
			ws.fired = true
			ws.last = v
			if err := sub.push(id, v, arrivals); err != nil {
				s.Logf("wire: notify %v: %v", sub.conn.RemoteAddr(), err)
			}
		}
		sub.mu.Unlock()
	}
}

// flushSubscribers delivers one final notify frame per standing query
// during shutdown: the query's current value, pushed even below the
// subscription's minChange threshold so no tail-end movement is lost —
// skipped only when nothing changed since the last notification. Every
// write races the deadline, so a stalled subscriber cannot hold
// shutdown hostage. Locks are taken in notifySubscribers' order (s.mu,
// then the subscriber's), so a flush cannot deadlock a concurrent
// ingest.
func (s *Server) flushSubscribers(deadline time.Time) []error {
	var errs []error
	for _, sub := range s.subscriberList() {
		s.mu.Lock()
		sub.mu.Lock()
		if err := sub.conn.SetWriteDeadline(deadline); err == nil {
			arrivals := s.def.tree.Arrivals()
			for id, ws := range sub.subs {
				v, err := s.def.tree.InnerProduct(ws.q.Ages, ws.q.Weights)
				if err != nil || (ws.fired && v == ws.last) {
					continue // never answerable, or the subscriber already has it
				}
				if err := sub.push(id, v, arrivals); err != nil {
					errs = append(errs, fmt.Errorf("wire: flush %v: %w", sub.conn.RemoteAddr(), err))
					break
				}
				ws.fired = true
				ws.last = v
			}
		} // else the connection is already dead: nothing to flush
		sub.mu.Unlock()
		s.mu.Unlock()
	}
	return errs
}

// push writes one notify frame. The caller holds sub.mu and has armed
// the write deadline.
//
//swat:deadline-held
func (sub *subscriber) push(id int, v float64, arrivals int64) error {
	sub.wbuf = appendNotifyFrame(sub.wbuf[:0], id, v, arrivals)
	_, err := sub.conn.Write(sub.wbuf)
	return err
}

// handleSubscribe registers one standing query on bc's connection and
// replies with its ID. The registration and the reply share the
// subscriber lock, so no notify for the new ID can precede the reply.
// An invalid query or minChange is a soft error frame.
func (s *Server) handleSubscribe(bc *binConn, payload []byte) error {
	minChange, err := decodeSubscribeFrame(payload, &bc.q)
	if err != nil {
		return err
	}
	sq := bc.q.qs[0]
	q := query.Query{
		Ages:    append([]int(nil), sq.Ages...),
		Weights: append([]float64(nil), sq.Weights...),
	}
	if err := q.Validate(); err != nil {
		s.binError(bc, err)
		return nil
	}
	if !(minChange >= 0) {
		s.binError(bc, fmt.Errorf("wire: minChange %v is not a non-negative number", minChange))
		return nil
	}
	if bc.sub == nil {
		bc.sub = &subscriber{conn: bc.conn, subs: make(map[int]*wireSub), next: 1}
		s.subscribers.mu.Lock()
		s.subscribers.byConn[bc.conn] = bc.sub
		s.subscribers.mu.Unlock()
	}
	sub := bc.sub
	sub.mu.Lock()
	defer sub.mu.Unlock()
	id := sub.next
	sub.next++
	sub.subs[id] = &wireSub{q: q, minChange: minChange}
	bc.wbuf = appendSubscribedFrame(bc.wbuf[:0], id)
	bc.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
	_, err = bc.conn.Write(bc.wbuf)
	return err
}

// Notification is one server push for a standing query.
type Notification struct {
	// ID is the subscription ID assigned by the server.
	ID int
	// Value is the query's current value.
	Value float64
	// Arrivals is the default stream's arrival counter at evaluation
	// time.
	Arrivals int64
}

// Subscribe registers a standing query on this connection and returns
// its ID plus a channel of notifications, closed when the connection
// closes. From then on the connection is push-only: issue no further
// calls on this client except Close, and use a dedicated connection
// for subscriptions. The subscribe round trip runs under the caller's
// SetDeadline; once the server acknowledges, the deadline is cleared
// so the notification reader waits as long as the connection lives.
func (c *BinClient) Subscribe(q query.Query, minChange float64) (int, <-chan Notification, error) {
	if err := q.Validate(); err != nil {
		return 0, nil, err
	}
	c.wbuf = appendSubscribeFrame(c.wbuf[:0], q, minChange)
	body, err := c.roundTripBin()
	if err != nil {
		return 0, nil, err
	}
	if len(body) != 5 || body[0] != bfSubscribed {
		return 0, nil, errFrameType
	}
	id := int(binary.BigEndian.Uint32(body[1:]))
	if err := c.conn.SetDeadline(time.Time{}); err != nil {
		return 0, nil, err
	}
	// The buffer absorbs a burst of pushes while the caller is busy; a
	// consumer slower than that stalls the reader, and TCP flow control
	// then stalls the server's pushes up to its write deadline.
	ch := make(chan Notification, 16)
	// The reader owns the connection's read side from here on, so it
	// inherits the client's reusable frame buffer.
	buf := c.rbuf
	c.rbuf = nil
	//lint:allow goroexit the reader exits when the connection closes: readBinFrame fails and the loop returns
	go func() {
		defer close(ch)
		for {
			//lint:allow deadline the wait for the next notify is unbounded by design; conn close ends it
			body, next, err := readBinFrame(c.conn, buf)
			if err != nil {
				return
			}
			buf = next
			if body[0] != bfNotify {
				continue
			}
			if n, err := decodeNotifyFrame(body[1:]); err == nil {
				ch <- n
			}
		}
	}()
	return id, ch, nil
}

// appendSubscribeFrame appends a subscribe frame for q, which must be
// valid (query.Query.Validate).
func appendSubscribeFrame(dst []byte, q query.Query, minChange float64) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfSubscribe)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(minChange))
	dst = appendQueryTerms(dst, []query.Query{q})
	return codec.Finish(dst, start)
}

// decodeSubscribeFrame parses a subscribe frame payload: its query
// lands in sc.qs[0], aliasing sc's buffers.
func decodeSubscribeFrame(payload []byte, sc *binQueryScratch) (minChange float64, err error) {
	if len(payload) < 8 {
		return 0, errFrameTruncated
	}
	if err := decodeQueryFrame(payload[8:], sc); err != nil {
		return 0, err
	}
	if len(sc.qs) != 1 {
		return 0, errFrameLength
	}
	return math.Float64frombits(binary.BigEndian.Uint64(payload)), nil
}

// appendSubscribedFrame appends the reply carrying a new subscription's
// ID.
func appendSubscribedFrame(dst []byte, id int) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	dst = append(dst, bfSubscribed)
	dst = binary.BigEndian.AppendUint32(dst, uint32(id))
	return codec.Finish(dst, start)
}

const notifyLen = 1 + 4 + 8 + 8

// appendNotifyFrame appends one notify frame.
func appendNotifyFrame(dst []byte, id int, v float64, arrivals int64) []byte {
	start := len(dst)
	dst = codec.Begin(dst)
	var b [notifyLen]byte
	b[0] = bfNotify
	binary.BigEndian.PutUint32(b[1:], uint32(id))
	binary.BigEndian.PutUint64(b[5:], math.Float64bits(v))
	binary.BigEndian.PutUint64(b[13:], uint64(arrivals))
	dst = append(dst, b[:]...)
	return codec.Finish(dst, start)
}

// decodeNotifyFrame parses a notify frame payload.
func decodeNotifyFrame(payload []byte) (Notification, error) {
	if len(payload) != notifyLen-1 {
		return Notification{}, errFrameLength
	}
	return Notification{
		ID:       int(binary.BigEndian.Uint32(payload)),
		Value:    math.Float64frombits(binary.BigEndian.Uint64(payload[4:])),
		Arrivals: int64(binary.BigEndian.Uint64(payload[12:])),
	}, nil
}
