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
	"github.com/streamsum/swat/internal/multi"
)

// Server serves SWAT trees over TCP in the binary protocol of
// binary.go. Every tree lives in one multi.Monitor: the unnamed frames
// (data, query, stats, sumReq, subscribe) and Feed address the monitor's
// default stream, registered under the empty name that no stream frame
// can carry, and the stream frames address the named streams beside it.
// Data frames of both kinds flow through one bounded ingest queue with
// explicit backpressure (see backpressure.go). Trees lock internally, so
// many clients can talk to one server concurrently.
type Server struct {
	// mu serializes the default stream's arrivals with the
	// standing-query pass that follows each (see subscribe.go).
	mu sync.Mutex

	// monitor holds every tree (see server_streams.go) and def is its
	// default stream; ownMonitor marks a monitor NewServer created, which
	// Close closes. All three are fixed before data flows and read
	// without a lock; the monitor locks internally, so named ingest never
	// takes s.mu. streamRefs caches name→handle resolutions under
	// streamMu.
	monitor    *multi.Monitor
	ownMonitor bool
	def        streamHandle
	streamMu   sync.Mutex
	streamRefs map[string]streamHandle

	// Live-resharding state (see migrate.go). epoch is the ring version
	// this node believes current: stream frames from older epochs are
	// refused (counted in epochRefusals) so a stale placement cannot
	// double-count values across owners. mig holds inbound bundle
	// transfers by bundle key (one per source node); it lives on the
	// server, not the connection, so an interrupted transfer resumes
	// across reconnects.
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

// NewServer creates a server over an in-memory monitor of its own whose
// default stream has exactly the geometry core.New(opts) resolves. Swap
// in another monitor, e.g. a durable one, with UseMonitor.
func NewServer(opts core.Options) (*Server, error) {
	probe, err := core.New(opts) // resolves k=0 as core does; multi would pick 4
	if err != nil {
		return nil, err
	}
	mon, err := multi.New(multi.Options{WindowSize: opts.WindowSize, Coefficients: probe.Coefficients(), MinLevel: opts.MinLevel})
	if err != nil {
		return nil, err
	}
	s := &Server{
		conns:       make(map[net.Conn]struct{}),
		Logf:        log.Printf,
		subscribers: &subscribers{byConn: make(map[net.Conn]*subscriber)},
	}
	if err := s.UseMonitor(mon); err != nil {
		mon.Close()
		return nil, err
	}
	s.ownMonitor = true
	return s, nil
}

// Feed pushes a value into the default stream directly (for servers
// that own the data source rather than receiving data frames) and
// notifies standing queries. In a durable monitor the value is
// write-ahead logged first, and a log failure leaves the tree untouched.
func (s *Server) Feed(v float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.def.ref.Observe(v); err != nil {
		return err
	}
	s.notifySubscribers()
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
// applies each queued batch to its stream (write-ahead logged first in
// a durable monitor) and, for the default stream, fires standing
// queries. One drainer keeps batch application in arrival order per
// connection and lets every connection reader run at socket speed.
func (s *Server) ingestLoop() {
	defer close(s.ingestDone)
	for b := range s.ingest.ch {
		if b.settled != nil {
			close(b.settled)
			continue
		}
		var err error
		if b.ref == s.def.ref {
			s.mu.Lock()
			if err = b.ref.ObserveBatch(b.vals); err == nil && s.hasSubscribers() {
				s.notifySubscribers()
			}
			s.mu.Unlock()
		} else {
			// The monitor shards and locks internally: named batches
			// never take the server lock.
			err = b.ref.ObserveBatch(b.vals)
		}
		if err != nil {
			s.ingest.errs.Add(1)
			s.Logf("wire: ingest: %v", err)
		}
		s.ingest.put(b)
	}
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

// Close stops accepting, applies every batch already queued, flushes a
// final notify frame to every standing query under ShutdownTimeout,
// cuts the remaining connections, waits for their handlers and drains
// whatever they queued meanwhile into the monitor. The flush means a
// subscriber observes the default stream's final state before its
// channel closes instead of losing whatever changed since its last
// notification. A monitor NewServer created is closed last; one passed
// to UseMonitor stays open for its owner, who closes it after Close
// returns. All shutdown failures are returned joined; Close is
// idempotent.
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
	if ingest != nil {
		// Apply what is already queued before the flush, so the final
		// notifications cover every batch accepted before Close.
		b := &ingestBatch{settled: make(chan struct{})}
		ingest.ch <- b
		<-b.settled
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
	if s.ownMonitor {
		if err := s.monitor.Close(); err != nil {
			errs = append(errs, fmt.Errorf("wire: close monitor: %w", err))
		}
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
