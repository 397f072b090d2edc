package core

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalBinary throws arbitrary bytes at the snapshot decoder,
// which is the summary-frame decoder (DecodeSummary, then
// ResetToSummary) behind the legacy-format refusal. Required behaviour
// on any input: no panic, no giant allocation from a lying geometry
// header, and — when the input is rejected — the receiver keeps its
// previous state untouched. The committed corpus entry is a geometry
// bomb in the legacy "SWAT" format, which must still be refused.
func FuzzUnmarshalBinary(f *testing.F) {
	// Seed with genuine snapshots across geometries and warm-up
	// stages, so mutation explores the format rather than the frame.
	for _, opts := range []Options{
		{WindowSize: 8},
		{WindowSize: 64, Coefficients: 4},
		{WindowSize: 32, Coefficients: 2, MinLevel: 2},
	} {
		for _, arrivals := range []int{0, 5, 200} {
			tr, err := New(opts)
			if err != nil {
				f.Fatal(err)
			}
			for i := 0; i < arrivals; i++ {
				tr.Update(float64(i % 17))
			}
			snap, err := tr.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(snap)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := New(Options{WindowSize: 16, Coefficients: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 23; i++ {
			tr.Update(float64(i))
		}
		before, err := tr.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}

		if err := tr.UnmarshalBinary(data); err != nil {
			// Rejected input must leave the receiver bit-for-bit as it
			// was: restores are all-or-nothing.
			after, merr := tr.MarshalBinary()
			if merr != nil {
				t.Fatalf("marshal after failed restore: %v", merr)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("failed UnmarshalBinary mutated the receiver")
			}
			return
		}

		// Accepted input must round-trip and answer basic accessors
		// without panicking.
		if tr.WindowSize() < 4 || tr.Arrivals() < 0 {
			t.Fatalf("restored impossible geometry: N=%d arrivals=%d", tr.WindowSize(), tr.Arrivals())
		}
		snap, err := tr.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal after restore: %v", err)
		}
		tr2, err := New(Options{WindowSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr2.UnmarshalBinary(snap); err != nil {
			t.Fatalf("round-trip restore failed: %v", err)
		}
	})
}
