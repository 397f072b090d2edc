package wire

// Explicit backpressure for the binary data plane. Every v2 data frame
// lands in a bounded queue of batches drained by one ingest worker, so
// a client that outruns the tree either blocks (the bound propagates
// down the TCP window to the sender — flow control, no loss) or is
// shed (the batch is counted and dropped — loss, no stall), selected
// by Server.Policy. Stats frames surface the queue's depth and shed
// counters so clients can adapt instead of discovering overload by
// timeout.

import (
	"sync/atomic"

	"github.com/streamsum/swat/internal/multi"
)

// IngestPolicy selects what a full ingest queue does with the next
// batch.
type IngestPolicy uint8

const (
	// IngestBlock stalls the connection's reader until the worker
	// drains a slot. Nothing is lost; backpressure reaches the client
	// as TCP flow control. The default.
	IngestBlock IngestPolicy = iota
	// IngestShed drops the batch, counts the loss, and keeps reading.
	// The summary under-counts, but a bursty client can never stall
	// the socket.
	IngestShed
)

// String names the policy for logs and CLI flags.
func (p IngestPolicy) String() string {
	if p == IngestShed {
		return "shed"
	}
	return "block"
}

// ingestBatch is one decoded data frame in flight between a connection
// reader and the ingest worker. Batches are recycled through the
// queue's free list, so the steady state allocates nothing.
type ingestBatch struct {
	vals []float64
	// ref is the stream the batch goes to: the default stream for data
	// frames, the named stream for sdata frames.
	ref multi.StreamRef
	// settled marks a barrier instead of data: the worker closes it when
	// it gets there, so every batch queued before it has been applied.
	settled chan struct{}
}

// ingestQueue is the bounded hand-off plus its accounting.
type ingestQueue struct {
	ch   chan *ingestBatch
	free chan *ingestBatch

	enqueued atomic.Uint64 // values accepted into ch
	shed     atomic.Uint64 // values dropped by IngestShed
	errs     atomic.Uint64 // batches the apply side rejected
}

func newIngestQueue(capBatches int) *ingestQueue {
	return &ingestQueue{
		ch: make(chan *ingestBatch, capBatches),
		// One extra free slot per queue slot plus slack for batches
		// held by connection readers mid-decode.
		free: make(chan *ingestBatch, 2*capBatches),
	}
}

// get returns a recycled batch, or a fresh one while the free list is
// still filling (cold path).
func (q *ingestQueue) get() *ingestBatch {
	select {
	case b := <-q.free:
		return b
	default:
		return &ingestBatch{}
	}
}

// put recycles a drained batch; if the free list is full the batch is
// simply dropped for the GC.
//
//swat:noalloc
func (q *ingestQueue) put(b *ingestBatch) {
	b.vals = b.vals[:0]
	b.ref = multi.StreamRef{}
	select {
	case q.free <- b:
	default:
	}
}

// offer hands a filled batch to the worker under the given policy. It
// reports whether the batch was accepted; a shed batch has already
// been counted and recycled.
//
//swat:noalloc
func (q *ingestQueue) offer(b *ingestBatch, policy IngestPolicy) bool {
	n := uint64(len(b.vals))
	if policy == IngestShed {
		select {
		case q.ch <- b:
			q.enqueued.Add(n)
			return true
		default:
			q.shed.Add(n)
			q.put(b)
			return false
		}
	}
	q.ch <- b
	q.enqueued.Add(n)
	return true
}
