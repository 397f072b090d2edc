package wire

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/durable"
	"github.com/streamsum/swat/internal/multi"
)

// Server owns a SWAT tree and serves it over TCP in the binary
// protocol of binary.go. Data frames flow through a bounded ingest
// queue with explicit backpressure (see backpressure.go). The tree is
// internally locked, so many clients can talk to one server
// concurrently.
type Server struct {
	mu   sync.Mutex
	tree *core.Tree
	// store, when set via UseStore, write-ahead logs every arrival
	// before it reaches the tree.
	store *durable.Store

	// monitor, when set via UseMonitor, serves the stream-addressed v2
	// frames (the cluster data plane, see server_streams.go);
	// streamRefs caches name→handle resolutions. Both are guarded by
	// streamMu — the monitor locks internally, so named ingest never
	// takes s.mu.
	streamMu   sync.Mutex
	monitor    *multi.Monitor
	streamRefs map[string]streamHandle

	// Live-resharding state (see migrate.go). epoch is the ring version
	// this node believes current: stream frames from older epochs are
	// refused (counted in epochRefusals) so a stale placement cannot
	// double-count values across owners. mig holds per-stream inbound
	// summary transfers; it lives on the server, not the connection, so
	// an interrupted transfer resumes across reconnects.
	epoch         atomic.Uint64
	epochRefusals atomic.Uint64
	migMu         sync.Mutex
	mig           map[string]*migEntry

	lnMu  sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{} // live connections, for shutdown
	wg    sync.WaitGroup
	// closed reports intentional shutdown so Serve can suppress the
	// accept error it causes.
	closed bool

	// Logf receives connection-level errors; defaults to log.Printf.
	Logf func(format string, args ...any)

	// ShutdownTimeout bounds the final standing-query flush Close
	// performs before cutting connections. 0 means 2 seconds.
	ShutdownTimeout time.Duration

	// WriteTimeout bounds every reply, error, and notify write so a
	// stalled or dead peer cannot wedge a handler goroutine against a
	// full send buffer. 0 means 30 seconds. Set before Listen.
	WriteTimeout time.Duration

	// IngestQueue bounds the binary data plane's pending batches; 0
	// means 256. Set before Listen.
	IngestQueue int
	// Policy selects what a full ingest queue does with the next v2
	// data batch: IngestBlock (default) or IngestShed.
	Policy IngestPolicy

	ingest     *ingestQueue
	ingestDone chan struct{}

	// Standing-query state (see subscribe.go).
	subscribers *subscribers
}

// NewServer creates a server around a fresh SWAT tree.
func NewServer(opts core.Options) (*Server, error) {
	tree, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	return &Server{
		tree:        tree,
		conns:       make(map[net.Conn]struct{}),
		Logf:        log.Printf,
		subscribers: &subscribers{byConn: make(map[net.Conn]*subscriber)},
	}, nil
}

// Tree exposes the server's tree, e.g. to open a durable store over it
// before any data arrives. Do not Update it directly.
func (s *Server) Tree() *core.Tree {
	return s.tree
}

// UseStore routes every arrival (Feed and data frames) through the
// durable store's write-ahead log. The store must be open over this
// server's tree (see Tree), and must be installed before data flows.
func (s *Server) UseStore(st *durable.Store) error {
	if st == nil {
		return errors.New("wire: nil store")
	}
	if st.Tree() != s.tree {
		return errors.New("wire: store is not backed by this server's tree")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = st
	return nil
}

// Feed pushes a value into the tree directly (for servers that own the
// data source rather than receiving data frames) and notifies standing
// queries. With a store installed the value is write-ahead logged
// first, and a log failure leaves the tree untouched.
func (s *Server) Feed(v float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ingestOne(v); err != nil {
		return err
	}
	s.notifySubscribers()
	return nil
}

// ingestOne applies one arrival through the store when present. Called
// with s.mu held.
func (s *Server) ingestOne(v float64) error {
	if s.store != nil {
		return s.store.Append1(v)
	}
	s.tree.Update(v)
	return nil
}

// Listen starts listening on addr (e.g. "127.0.0.1:0"), starts the
// binary data plane's ingest worker, and returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	s.lnMu.Lock()
	s.ln = ln
	s.startIngestLocked()
	s.lnMu.Unlock()
	return ln.Addr(), nil
}

// startIngestLocked creates the bounded ingest queue and its worker.
// Caller holds lnMu; idempotent so tests can drive the binary path
// without a listener.
func (s *Server) startIngestLocked() {
	if s.ingest != nil {
		return
	}
	capBatches := s.IngestQueue
	if capBatches <= 0 {
		capBatches = 256
	}
	s.ingest = newIngestQueue(capBatches)
	s.ingestDone = make(chan struct{})
	go s.ingestLoop()
}

// ingestLoop is the single worker draining the binary data plane: it
// applies each queued batch to the tree (through the WAL when a store
// is installed) and fires standing queries. One drainer keeps batch
// application in arrival order per connection and lets every
// connection reader run at socket speed.
func (s *Server) ingestLoop() {
	defer close(s.ingestDone)
	for b := range s.ingest.ch {
		if b.named {
			// Stream-addressed batch: the monitor shards and locks
			// internally, so the server lock (and the shared tree's
			// standing queries) are not involved.
			if err := b.ref.ObserveBatch(b.vals); err != nil {
				s.ingest.errs.Add(1)
				s.Logf("wire: ingest: %v", err)
			}
			s.ingest.put(b)
			continue
		}
		s.mu.Lock()
		err := s.ingestBatch(b.vals)
		if err == nil && s.hasSubscribers() {
			s.notifySubscribers()
		}
		s.mu.Unlock()
		if err != nil {
			s.ingest.errs.Add(1)
			s.Logf("wire: ingest: %v", err)
		}
		s.ingest.put(b)
	}
}

// ingestBatch applies one batch through the store when present. Called
// with s.mu held.
func (s *Server) ingestBatch(vs []float64) error {
	if s.store != nil {
		return s.store.Append(vs)
	}
	s.tree.UpdateBatch(vs)
	return nil
}

// Serve accepts connections until Close is called. Listen must have been
// called first.
func (s *Server) Serve() error {
	s.lnMu.Lock()
	ln := s.ln
	s.lnMu.Unlock()
	if ln == nil {
		return errors.New("wire: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.lnMu.Lock()
			closed := s.closed
			s.lnMu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		s.lnMu.Lock()
		if s.closed {
			// Raced with Close: this connection would never be cut.
			s.lnMu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.lnMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, flushes a final notify frame to every standing
// query under ShutdownTimeout, then cuts the remaining connections and
// waits for their handlers. The flush means a subscriber observes the
// tree's final state before its channel closes instead of losing
// whatever changed since its last notification. All shutdown failures
// are returned joined; Close is idempotent.
func (s *Server) Close() error {
	s.lnMu.Lock()
	if s.closed {
		done := s.ingestDone
		s.lnMu.Unlock()
		s.wg.Wait()
		if done != nil {
			<-done
		}
		return nil
	}
	s.closed = true
	ln := s.ln
	ingest := s.ingest
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.lnMu.Unlock()
	var errs []error
	if ln != nil {
		if err := ln.Close(); err != nil {
			errs = append(errs, fmt.Errorf("wire: close listener: %w", err))
		}
	}
	timeout := s.ShutdownTimeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	errs = append(errs, s.flushSubscribers(time.Now().Add(timeout))...)
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	// All connection readers are gone, so nothing can enqueue anymore:
	// let the worker drain the remaining batches and exit. Readers
	// blocked on a full queue above were unblocked by the worker, which
	// keeps draining until the channel closes here.
	if ingest != nil {
		close(ingest.ch)
		<-s.ingestDone
	}
	return errors.Join(errs...)
}

// handle serves one connection until EOF or a protocol error. Its
// first four bytes must be the "SWA2" magic (see binary.go); any other
// opening is logged and the connection closed without a reply.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.dropConn(conn)
		conn.Close()
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
	}()
	var first [4]byte
	//lint:allow deadline the first-byte wait IS the idle connection; Close/dropConn bounds it
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		if !errors.Is(err, io.EOF) {
			s.Logf("wire: %v: %v", conn.RemoteAddr(), err)
		}
		return
	}
	if first != binMagic {
		s.Logf("wire: %v: connection opened with %q, not the %q magic; closing", conn.RemoteAddr(), first[:], binMagic[:])
		return
	}
	s.handleBinary(conn)
}

// writeTimeout returns the effective reply-write bound.
func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout > 0 {
		return s.WriteTimeout
	}
	return 30 * time.Second
}
