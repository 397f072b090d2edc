//go:build linux

package main

// The benchmark's own generator and measuring tools: seeded value
// pools, the open-loop pacer, latency samples and their percentiles,
// and the in-memory span recorder of the traced pass. None of it calls
// the system under test.

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/streamsum/swat/internal/stream"
)

const batchLen = 256

// valuePool holds slots × streams batches of stream.Uniform values.
// Batch j of stream k is slot j mod slots, so a sender only counts the
// batches it shipped and a twin replays exactly the same values later,
// off the measured path.
type valuePool struct {
	slots, streams int
	vals           []float64
}

func newValuePool(seed int64, slots, streams int) *valuePool {
	p := &valuePool{slots: slots, streams: streams, vals: make([]float64, slots*streams*batchLen)}
	for k := 0; k < streams; k++ {
		src := stream.Uniform(streamSeed(seed, k))
		for j := 0; j < slots; j++ {
			b := p.batch(k, j)
			for i := range b {
				b[i] = src.Next()
			}
		}
	}
	return p
}

// batch returns stream k's j-th batch.
func (p *valuePool) batch(k, j int) []float64 {
	off := ((j%p.slots)*p.streams + k) * batchLen
	return p.vals[off : off+batchLen : off+batchLen]
}

func (p *valuePool) values() int { return len(p.vals) }

// streamSeed spreads one run seed over per-stream sources.
func streamSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// samples collects one timing's observations, in microseconds.
type samples struct {
	us []float64
}

func (s *samples) add(d time.Duration) { s.us = append(s.us, float64(d)/1e3) }

func (s *samples) merge(o *samples) { s.us = append(s.us, o.us...) }

func (s *samples) sorted() []float64 {
	out := append([]float64(nil), s.us...)
	sort.Float64s(out)
	return out
}

// percentile of sorted values, nearest-rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// timing is how every latency is reported: median, the highest
// standard percentile with at least ten samples beyond it, and count.
type timing struct {
	MedianUS float64 `json:"median_us"`
	TailPct  float64 `json:"tail_pct"`
	TailUS   float64 `json:"tail_us"`
	Count    int     `json:"count"`
}

func (s *samples) timing() timing {
	v := s.sorted()
	t := timing{MedianUS: percentile(v, 0.5), Count: len(v)}
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(len(v))*(1-p) >= 10 {
			t.TailPct, t.TailUS = p*100, percentile(v, p)
			break
		}
	}
	return t
}

// pacer schedules an open loop: operation i is due at start + i·every
// whether or not earlier ones finished, and a latency is timed from the
// due time so a stall charges the operations queued behind it.
type pacer struct {
	start time.Time
	every time.Duration
	// punctual sleeps in the kernel, good to tens of microseconds but a
	// wake-up the kernel serves ahead of whatever else shares the core;
	// otherwise the runtime's timer, up to a millisecond late (more on
	// an idle process) but woken only when a processor is free.
	punctual bool
	i        int64
	late     samples // how far behind its schedule the generator started each operation
}

// next sleeps until the next due time and returns it.
func (p *pacer) next() time.Time {
	due := p.start.Add(time.Duration(p.i) * p.every)
	p.i++
	if d := time.Until(due); d > 0 {
		if p.punctual {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		} else {
			time.Sleep(d)
		}
	}
	p.late.add(time.Since(due))
	return due
}

func selfCPU() time.Duration { return procCPU(os.Getpid()) }

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// span is one timed call into a layer, recorded by the benchmark
// around the call. Parent is the index of the span that caused it, -1
// for a root.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is the untraced pass.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now})
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// tracePairs is how many untraced/traced pairs of slices a traced pass
// alternates. The overhead is read from neighbours in time, so a change
// of pace on the box lands on both sides of the comparison.
const tracePairs = 4

// traceOverhead runs slice alternately without and with the tracer for
// d in all and returns how much more a unit of work cost traced, in per
// cent of the untraced cost. slice returns its cost per unit.
func traceOverhead(tr *tracer, d time.Duration, slice func(d time.Duration, tr *tracer) (float64, error)) (float64, error) {
	var plain, traced []float64
	for i := 0; i < 2*tracePairs; i++ {
		with := tr
		if i%2 == 0 {
			with = nil
		}
		c, err := slice(d/(2*tracePairs), with)
		if err != nil {
			return 0, err
		}
		if with == nil {
			plain = append(plain, c)
		} else {
			traced = append(traced, c)
		}
	}
	return 100 * (median(traced) - median(plain)) / median(plain), nil
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered[i])
	}
	return out
}

// write dumps the spans, and each span name's summed self time, as
// JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"spans": t.spans, "self_ns": t.selfTimes()}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
