package multi

import (
	"fmt"
	"testing"

	"github.com/streamsum/swat/internal/query"
	"github.com/streamsum/swat/internal/stream"
)

func TestRefResolvesOnce(t *testing.T) {
	m, err := New(Options{WindowSize: 32, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, name := range []string{"a", "b"} {
		if err := m.Add(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Ref("missing"); err == nil {
		t.Error("ref to unknown stream succeeded")
	}
	ref, err := m.Ref("b")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Name() != "b" {
		t.Errorf("ref name = %q", ref.Name())
	}

	// Ref ingest must be indistinguishable from named ingest.
	src := stream.Uniform(11)
	batch := make([]float64, 16)
	for i := 0; i < 8; i++ {
		for j := range batch {
			batch[j] = src.Next()
		}
		if err := ref.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := m.ObserveBatch("a", batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Observe(42); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("a", 42); err != nil {
		t.Fatal(err)
	}
	if got := ref.Arrived(); got != 129 {
		t.Errorf("arrived = %d, want 129", got)
	}
	q, _ := query.New(query.Exponential, 0, 8, 0)
	answers, err := m.QueryAll(q)
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Err != nil || answers[1].Err != nil {
		t.Fatalf("answers = %+v", answers)
	}
	if answers[0].Value != answers[1].Value {
		t.Errorf("ref-fed stream answers %v, name-fed %v", answers[1].Value, answers[0].Value)
	}
}

// TestRefIngestDoesNotAllocate is the AllocsPerRun cross-check for the
// //swat:noalloc annotations on StreamRef.Observe and
// StreamRef.ObserveBatch (in-memory mode).
func TestRefIngestDoesNotAllocate(t *testing.T) {
	m, err := New(Options{WindowSize: 64, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Add("s"); err != nil {
		t.Fatal(err)
	}
	ref, err := m.Ref("s")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]float64, 32)
	for i := range batch {
		batch[i] = float64(i)
	}
	// Warm the tree past its growth phase.
	for i := 0; i < 8; i++ {
		if err := ref.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	var fail error
	allocs := testing.AllocsPerRun(200, func() {
		if err := ref.ObserveBatch(batch); err != nil {
			fail = err
		}
		if err := ref.Observe(1.5); err != nil {
			fail = err
		}
	})
	if fail != nil {
		t.Fatal(fail)
	}
	if allocs != 0 {
		t.Errorf("ref ingest allocates %v times per cycle, want 0", allocs)
	}

	// ObserveAllBatch is not allocation-free — the per-shard error
	// slice and the shard closure, and with several shards the wait
	// group and one job per shard — but its cost is per call, not per
	// stream or row: 64 streams × 64 rows stay at 2 allocations with
	// one shard and 5 with two.
	for _, c := range []struct{ shards, max int }{{1, 2}, {2, 5}} {
		m, err := New(Options{WindowSize: 64, Shards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for i := 0; i < 64; i++ {
			if err := m.Add(fmt.Sprintf("s%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		rows := make([][]float64, 64)
		for r := range rows {
			rows[r] = make([]float64, 64)
			for i := range rows[r] {
				rows[r][i] = float64(r*i%17) - 8
			}
		}
		for i := 0; i < 4; i++ {
			if err := m.ObserveAllBatch(rows); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := m.ObserveAllBatch(rows); err != nil {
				fail = err
			}
		})
		if fail != nil {
			t.Fatal(fail)
		}
		if allocs > float64(c.max) {
			t.Errorf("ObserveAllBatch with %d shards allocates %v times per call, want <= %d", c.shards, allocs, c.max)
		}
	}
}
