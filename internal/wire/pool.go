package wire

// BinPool: pooled, self-healing v2 connections to one server. BinClient
// is deliberately single-goroutine (its buffers are reused across
// calls); the pool is what makes that usable at cluster scale — it
// hands out idle clients, redials dropped ones with bounded exponential
// backoff, and keeps enough connections open that ingest pipelining and
// concurrent scatter-gather reads don't serialize on one socket.
//
// Jitter comes from a seeded RNG: retry schedules are reproducible
// under test, and a fleet of clients created with distinct seeds still
// desynchronizes its retry storms.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// BinPool manages v2 connections to a single server address. Configure
// the exported fields before first use; all methods are safe for
// concurrent use. The zero MaxIdle/MaxAttempts/backoff fields get
// defaults, so BinPool{Addr: a} works.
type BinPool struct {
	// Addr is the server's TCP address.
	Addr string
	// MaxIdle bounds connections kept for reuse (default 2). More
	// connections than this may exist concurrently — Get always
	// returns a connection — but extras are closed on Put.
	MaxIdle int
	// MaxAttempts bounds dials per Get, and attempts per Do (default
	// 4): each failure waits BaseBackoff·2^attempt capped at
	// MaxBackoff, halved and re-widened by seeded jitter.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the retry schedule (defaults
	// 10ms and 500ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// Seed fixes the jitter RNG (default 1). Set before first use.
	Seed int64

	mu     sync.Mutex
	rng    *rand.Rand
	idle   []*BinClient
	closed bool

	dials    atomic.Uint64 // successful dials
	retries  atomic.Uint64 // redials forced by a failure
	discards atomic.Uint64 // connections dropped as poisoned
}

// PoolStats is a snapshot of the pool's connection churn. Retries
// counts every backoff-redial a failure forced — the satellite metric
// that used to be invisible when a dropped conn simply killed the
// client.
type PoolStats struct {
	Dials    uint64
	Retries  uint64
	Discards uint64
	Idle     int
}

// ErrPoolClosed is returned by Get and Do after Close.
var ErrPoolClosed = errors.New("wire: pool closed")

func (p *BinPool) maxIdle() int {
	if p.MaxIdle <= 0 {
		return 2
	}
	return p.MaxIdle
}

func (p *BinPool) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

// backoffFor computes the jittered sleep before retry attempt (0-based
// counting failures so far): full exponential with a floor at half, so
// concurrent clients spread out without ever retrying immediately.
func (p *BinPool) backoffFor(attempt int) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 500 * time.Millisecond
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	p.mu.Lock()
	if p.rng == nil {
		seed := p.Seed
		if seed == 0 {
			seed = 1
		}
		p.rng = rand.New(rand.NewSource(seed))
	}
	jitter := p.rng.Int63n(int64(d)/2 + 1)
	p.mu.Unlock()
	return d/2 + time.Duration(jitter)
}

// Get returns a connected client: an idle one when available, else a
// fresh dial with up to MaxAttempts tries under backoff. The caller
// must return it with Put (healthy) or Discard (poisoned).
func (p *BinPool) Get() (*BinClient, error) {
	return p.GetCtx(context.Background())
}

// GetCtx is Get with the total dial time — connects, handshakes, and
// the backoff sleeps between attempts — capped by the context's
// deadline. A Rebalance probing a dead new owner uses this to fail the
// migration fast instead of parking in the full retry schedule; a
// cancellation between attempts surfaces as the context's error.
func (p *BinPool) GetCtx(ctx context.Context) (*BinClient, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < p.maxAttempts(); attempt++ {
		if attempt > 0 {
			p.retries.Add(1)
			if err := sleepCtx(ctx, p.backoffFor(attempt-1)); err != nil {
				if lastErr != nil {
					return nil, errors.Join(lastErr, err)
				}
				return nil, err
			}
		}
		c, err := DialBinaryContext(ctx, p.Addr)
		if err == nil {
			p.dials.Add(1)
			return c, nil
		}
		lastErr = err
		var remote *RemoteError
		if errors.As(err, &remote) {
			// The server answered and refused the handshake; retrying
			// cannot help.
			break
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Put returns a healthy client for reuse. Buffered data frames are
// flushed first; a flush failure discards the connection instead.
func (p *BinPool) Put(c *BinClient) {
	if c == nil {
		return
	}
	if err := c.Flush(); err != nil {
		p.Discard(c)
		return
	}
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.maxIdle() {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.Close()
}

// Discard closes a poisoned client (transport error, deadline hit).
func (p *BinPool) Discard(c *BinClient) {
	if c == nil {
		return
	}
	p.discards.Add(1)
	c.Close()
}

// Do runs fn with a pooled client, retrying on transport errors with
// fresh connections (up to MaxAttempts total attempts under backoff).
// A *RemoteError returns immediately with the connection pooled — the
// server is healthy, it just said no. A Get failure is terminal: Get
// already exhausted its own dial retries (or the server refused the
// handshake), so Do's loop only re-attempts fn failures on connections
// that did dial. fn must be
// idempotent: a transport error may strike after the server acted, so
// Do is for reads (queries, summaries, stats); one-way ingest manages
// its own at-most-once accounting.
func (p *BinPool) Do(fn func(*BinClient) error) error {
	return p.DoCtx(context.Background(), fn)
}

// DoCtx is Do with every dial and backoff sleep capped by the
// context's deadline (see GetCtx). fn itself is not interrupted —
// callers that need bounded round trips arm SetDeadline on the client
// as usual — but a dead server can no longer stretch the attempt
// schedule past the context.
func (p *BinPool) DoCtx(ctx context.Context, fn func(*BinClient) error) error {
	var lastErr error
	for attempt := 0; attempt < p.maxAttempts(); attempt++ {
		if attempt > 0 {
			p.retries.Add(1)
			if err := sleepCtx(ctx, p.backoffFor(attempt-1)); err != nil {
				if lastErr != nil {
					return errors.Join(lastErr, err)
				}
				return err
			}
		}
		c, err := p.GetCtx(ctx)
		if err != nil {
			return err
		}
		err = fn(c)
		if err == nil {
			p.Put(c)
			return nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			p.Put(c)
			return err
		}
		p.Discard(c)
		lastErr = err
	}
	return lastErr
}

// Stats snapshots the pool's churn counters.
func (p *BinPool) Stats() PoolStats {
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	return PoolStats{
		Dials:    p.dials.Load(),
		Retries:  p.retries.Load(),
		Discards: p.discards.Load(),
		Idle:     idle,
	}
}

// Close closes every idle connection and fails future Get/Do calls.
// Clients currently checked out are unaffected; Put closes them on
// return.
func (p *BinPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	var errs []error
	for _, c := range idle {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
