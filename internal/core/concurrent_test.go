package core

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
)

// Concurrency tests for the reader/writer discipline. Run with -race
// (the Makefile's race target includes this package): the assertions
// check linearizability — every concurrently observed answer equals the
// exact evaluation on either the pre- or the post-update state, never a
// torn mix — and the race detector checks the memory model underneath.

// cloneTree snapshots a tree into an independent copy via the binary
// checkpoint, so expected answers can be computed without racing.
func cloneTree(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out, err := New(Options{WindowSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return out
}

func testQueryBatch(t *testing.T, n int) []query.Query {
	t.Helper()
	qs := make([]query.Query, 0, 16)
	for _, spec := range []struct {
		kind query.Kind
		age  int
		m    int
	}{
		{query.Point, 0, 1},
		{query.Point, n / 2, 1},
		{query.Exponential, 0, 16},
		{query.Exponential, 7, 32},
		{query.Linear, 0, 8},
		{query.Linear, n / 4, 64},
		{query.Linear, n - 8, 8},
	} {
		q, err := query.New(spec.kind, spec.age, spec.m, 0)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	return qs
}

// TestAnswerBatchConcurrentWithUpdateBatch runs reader goroutines
// against one writer applying a single UpdateBatch, and asserts every
// observed answer vector equals the exact plan evaluation on the
// pre-update or the post-update tree — UpdateBatch must be atomic with
// respect to AnswerBatch.
func TestAnswerBatchConcurrentWithUpdateBatch(t *testing.T) {
	const n = 1024
	tr := warmTree(t, Options{WindowSize: n, Coefficients: 4})
	qs := testQueryBatch(t, n)

	batch := make([]float64, 173)
	src := stream.Uniform(41)
	for i := range batch {
		batch[i] = src.Next()
	}

	// Expected pre- and post-update answers, computed on clones so the
	// live tree is untouched until the race starts.
	pre := make([]float64, len(qs))
	if err := tr.AnswerBatch(pre, qs); err != nil {
		t.Fatal(err)
	}
	postTree := cloneTree(t, tr)
	postTree.UpdateBatch(batch)
	post := make([]float64, len(qs))
	if err := postTree.AnswerBatch(post, qs); err != nil {
		t.Fatal(err)
	}

	matches := func(got, want []float64) bool {
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	const readers = 8
	var (
		start    = make(chan struct{})
		done     atomic.Bool
		sawPre   atomic.Int64
		sawPost  atomic.Int64
		torn     atomic.Int64
		wg       sync.WaitGroup
		writerWG sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, len(qs))
			<-start
			for i := 0; ; i++ {
				if err := tr.AnswerBatch(dst, qs); err != nil {
					t.Errorf("AnswerBatch: %v", err)
					return
				}
				switch {
				case matches(dst, pre):
					sawPre.Add(1)
				case matches(dst, post):
					sawPost.Add(1)
				default:
					torn.Add(1)
				}
				// Keep querying a while after the writer finishes so
				// the post state is certainly observed.
				if done.Load() && i > 50 {
					return
				}
			}
		}()
	}
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		<-start
		tr.UpdateBatch(batch)
	}()
	close(start)
	writerWG.Wait()
	done.Store(true)
	wg.Wait()

	if torn.Load() != 0 {
		t.Fatalf("%d torn answer vectors (neither pre nor post state)", torn.Load())
	}
	if sawPost.Load() == 0 {
		t.Error("no reader observed the post-update state")
	}
	if sawPre.Load()+sawPost.Load() == 0 {
		t.Error("readers answered nothing")
	}
}

// TestConcurrentMixedReadersWithIngest drives every query entry point —
// ad-hoc queries, compiled plans, covers, snapshots — from parallel
// goroutines while a writer ingests continuously. Correctness here is
// the race detector's job plus basic sanity on the answers.
func TestConcurrentMixedReadersWithIngest(t *testing.T) {
	const n = 512
	tr := warmTree(t, Options{WindowSize: n, Coefficients: 4})
	qs := testQueryBatch(t, n)

	var stop atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		src := stream.Uniform(7)
		buf := make([]float64, 16)
		for i := 0; i < 300; i++ {
			if i%2 == 0 {
				tr.Update(src.Next())
			} else {
				for j := range buf {
					buf[j] = src.Next()
				}
				tr.UpdateBatch(buf)
			}
		}
		stop.Store(true)
	}()

	for r := 0; r < 6; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := tr.Compile(qs[2].Ages, qs[2].Weights)
			if err != nil {
				t.Errorf("Compile: %v", err)
				return
			}
			dst := make([]float64, len(qs))
			for !stop.Load() {
				switch r % 3 {
				case 0:
					if err := tr.AnswerBatch(dst, qs); err != nil {
						t.Errorf("AnswerBatch: %v", err)
						return
					}
				case 1:
					if _, err := p.Eval(); err != nil {
						t.Errorf("Eval: %v", err)
						return
					}
					if _, err := tr.PointQuery(3); err != nil {
						t.Errorf("PointQuery: %v", err)
						return
					}
				case 2:
					if _, err := tr.CoverNodes(qs[3].Ages); err != nil {
						t.Errorf("CoverNodes: %v", err)
						return
					}
					if _, err := tr.MarshalBinary(); err != nil {
						t.Errorf("MarshalBinary: %v", err)
						return
					}
					tr.VisitNodes(func(ni NodeInfo) bool { return true })
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadersConcurrentWithInPlaceInstalls runs readers and compiled
// plans against a writer that installs two summaries in turn, in place,
// through one reused Summary — the handoff receiver's loop. Every
// answer vector and every plan evaluation must equal the exact answer
// on the initial state or on one of the two installed states: an
// install overwrites node buffers a plan has lent, so the plan must see
// the generation advance and recompile rather than read a torn mix.
func TestReadersConcurrentWithInPlaceInstalls(t *testing.T) {
	const n = 512
	opts := Options{WindowSize: n, Coefficients: 4}
	tr := warmTree(t, opts)
	qs := testQueryBatch(t, n)
	frames := [][]byte{
		feedTree(t, opts, stream.Uniform(51), 2*n+3).AppendSummary(nil),
		feedTree(t, opts, stream.Uniform(52), 3*n+1).AppendSummary(nil),
	}

	// Expected answers on every state the readers may observe,
	// computed on clones.
	type answers struct {
		batch []float64
		plan  float64
	}
	expect := func(x *Tree) answers {
		a := answers{batch: make([]float64, len(qs))}
		if err := x.AnswerBatch(a.batch, qs); err != nil {
			t.Fatal(err)
		}
		p, err := x.Compile(qs[2].Ages, qs[2].Weights)
		if err != nil {
			t.Fatal(err)
		}
		if a.plan, err = p.Eval(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	states := []answers{expect(cloneTree(t, tr))}
	for _, f := range frames {
		s, err := DecodeSummary(f)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, expect(rebuilt(t, s)))
	}
	known := func(batch []float64, plan float64) bool {
		for _, st := range states {
			if batch != nil && slices.Equal(batch, st.batch) || batch == nil && plan == st.plan {
				return true
			}
		}
		return false
	}

	var (
		stop atomic.Bool
		torn atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer stop.Store(true)
		var scratch Summary
		for i := 0; i < 200; i++ {
			if err := DecodeSummaryInto(&scratch, frames[i%2]); err != nil {
				t.Errorf("DecodeSummaryInto: %v", err)
				return
			}
			if err := tr.ResetToSummary(&scratch); err != nil {
				t.Errorf("ResetToSummary: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := tr.Compile(qs[2].Ages, qs[2].Weights)
			if err != nil {
				t.Errorf("Compile: %v", err)
				return
			}
			dst := make([]float64, len(qs))
			for !stop.Load() {
				if r%2 == 0 {
					if err := tr.AnswerBatch(dst, qs); err != nil {
						t.Errorf("AnswerBatch: %v", err)
						return
					}
					if !known(dst, 0) {
						torn.Add(1)
					}
					continue
				}
				v, err := p.Eval()
				if err != nil {
					t.Errorf("Eval: %v", err)
					return
				}
				if !known(nil, v) {
					torn.Add(1)
				}
				if _, _, err := tr.BoundedPoint(n / 3); err != nil {
					t.Errorf("BoundedPoint: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d answers match no installed state", torn.Load())
	}
	if got, want := tr.AppendSummary(nil), frames[1]; !bytes.Equal(got, want) {
		t.Fatal("the last install did not land")
	}
}
