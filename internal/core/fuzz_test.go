package core

import (
	"bytes"
	"fmt"
	"testing"
)

// fuzzWindows are the window sizes FuzzUpdateBatchEquivalence draws
// from; 256 and 1024 are the geometries swatd and its feeders run.
var fuzzWindows = []int{4, 8, 16, 32, 64, 256, 1024}

// batchSeed builds a FuzzUpdateBatchEquivalence input whose leading
// batch sizes are exactly sizes (each below 256, shift 0; a 0 feeds one
// value through Update): window index, k and minLevel bytes, a header
// byte asking for reps passes over a 64-byte payload, then the payload.
func batchSeed(window, k, minLevel byte, reps int, sizes ...byte) []byte {
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i*37 + 11)
	}
	copy(payload, sizes)
	return append([]byte{window, k, minLevel, byte(reps-1) << 3}, payload...)
}

// FuzzUpdateBatchEquivalence is the fuzz-driven form of the
// batch-equivalence property: arbitrary input bytes choose the tree
// geometry, the stream values, and the batch split points, and
// UpdateBatch must leave the tree, at the end of every batch,
// bit-identical (field by field and in the summary encoding) to
// feeding the same values one at a time through Update. Like all Go fuzz targets, the checked-in
// corpus runs as part of the normal test suite.
//
// Input layout: window index, k, minLevel, a header byte, payload. The
// header's high five bits give the number of passes over the payload
// (1–32), so the stream can outgrow 2N even at N=1024; its low three
// bits shift every batch size left, so one batch can too.
func FuzzUpdateBatchEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 2, 1, 0, 10, 200, 30, 40, 5, 60, 255, 0, 128})
	f.Add([]byte{4, 3, 2, 0, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(append([]byte{2, 0, 0, 0}, bytes.Repeat([]byte{7, 130, 13}, 60)...))
	// swatd's geometry: N=1024, k=1, MinLevel 0, batches far longer
	// than 2N (shift 5, 32 passes); the same at k=4, the query-node
	// feeder's budget; and N=256 at MinLevel 1.
	f.Add(append([]byte{6, 0, 0, 31<<3 | 5}, bytes.Repeat([]byte{200, 3, 77, 150}, 16)...))
	f.Add(append([]byte{6, 2, 0, 15<<3 | 4}, bytes.Repeat([]byte{255, 1, 64}, 20)...))
	f.Add(append([]byte{5, 0, 1, 7<<3 | 2}, bytes.Repeat([]byte{129, 0, 31}, 20)...))
	// Batches that end exactly 1, 2, 3 and 3·2^l arrivals past a level
	// boundary. On N=64 a first batch of 64+d ends d past the top
	// boundary (64) and one of 32+3·2^l ends 3·2^l past 32; the
	// follow-up batches then start on those odd phases. On N=256 a
	// 255-value batch ends 3·2^l past the top boundary (256).
	for _, d := range []byte{1, 2, 3} {
		f.Add(batchSeed(4, 0, 0, 4, 64+d, 64, 0, 64-d))
		f.Add(batchSeed(4, 2, 1, 4, 64+d, 61, 3))
		f.Add(batchSeed(5, 0, 0, 16, 1+d, 255, 255))
	}
	for l := 0; l < 6; l++ {
		d := byte(3 << uint(l))
		f.Add(batchSeed(4, 0, 0, 4, 32+d, 1, 2, 3, d))
		f.Add(batchSeed(4, 1, 0, 4, 64+d, 0, d))
		f.Add(batchSeed(5, 0, 0, 16, 1+d, 255, 255))
		// One short of 3·2^l past an odd multiple of 2^l (64+2^l, then
		// 256+2^l): level l's third-last refresh, one its parent never
		// reads, sits exactly 3·2^l − 1 arrivals before the end and
		// must still be computed.
		f.Add(batchSeed(4, 0, 0, 4, 63+4<<uint(l), 1, 2))
		f.Add(batchSeed(5, 0, 0, 16, 4<<uint(l), 255, 255))
	}
	f.Add(batchSeed(5, 0, 0, 16, 130, 255, 255, 255)) // 256 + 3·2^7
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		n := fuzzWindows[int(data[0])%len(fuzzWindows)]
		levels := 0
		for 1<<uint(levels) < n {
			levels++
		}
		opts := Options{
			WindowSize:   n,
			Coefficients: 1 << uint(int(data[1])%4),
			MinLevel:     int(data[2]) % levels,
		}
		seq, err := New(opts)
		if err != nil {
			t.Skip() // geometry rejected by validation; nothing to compare
		}
		bat, err := New(opts)
		if err != nil {
			t.Fatalf("same options accepted then rejected: %v", err)
		}
		reps, shift := 1+int(data[3]>>3), uint(data[3]&7)
		payload := data[4:]
		values := make([]float64, reps*len(payload))
		for i := range values {
			values[i] = (float64(payload[i%len(payload)]) - 127.5) * 3
		}
		// The same bytes double as batch sizes, so the fuzzer controls
		// exactly where the batches straddle refresh boundaries. Every
		// batch end is a state queries can observe, so each is compared.
		for i, j := 0, 0; i < len(values); j++ {
			size := int(payload[j%len(payload)]) << shift % (len(values) - i + 1)
			if size == 0 {
				bat.Update(values[i])
				size = 1
			} else {
				bat.UpdateBatch(values[i : i+size])
			}
			for _, v := range values[i : i+size] {
				seq.Update(v)
			}
			i += size
			requireSameState(t, seq, bat)
		}
	})
}

// requireSameState fails unless two trees are bit-identical field by
// field — counters, the raw ring with its head, every node's validity
// and birth (invalid births included) and valid coefficients, taint —
// and in the canonical summary encoding. The summary alone would not
// do: it emits the ring in age order and drops invalid births.
func requireSameState(t *testing.T, want, got *Tree) {
	t.Helper()
	if d := stateDiff(&want.treeState, &got.treeState); d != "" {
		t.Fatalf("geometry N=%d k=%d minLevel=%d after %d arrivals: %s differs",
			want.WindowSize(), want.Coefficients(), want.MinLevel(), want.Arrivals(), d)
	}
	if !bytes.Equal(want.AppendSummary(nil), got.AppendSummary(nil)) {
		t.Fatalf("geometry N=%d k=%d minLevel=%d after %d arrivals: summaries differ",
			want.WindowSize(), want.Coefficients(), want.MinLevel(), want.Arrivals())
	}
}

// stateDiff names the first field in which two tree states differ, or
// returns "" when they agree bit for bit. Floats compare by their bits.
func stateDiff(a, b *treeState) string {
	switch {
	case a.n != b.n || a.minLevel != b.minLevel || a.k != b.k:
		return "geometry"
	case a.arrivals != b.arrivals || a.nodeUpdates != b.nodeUpdates || a.streams != b.streams:
		return "counters"
	case a.recentHead != b.recentHead || a.recentLen != b.recentLen || !sameFloats(a.recent, b.recent):
		return "ring"
	case len(a.taint) != len(b.taint):
		return "taint"
	}
	for i := range a.taint {
		if a.taint[i].From != b.taint[i].From || a.taint[i].To != b.taint[i].To ||
			!sameBits(a.taint[i].Half, b.taint[i].Half) {
			return "taint"
		}
	}
	for l := a.minLevel; l < a.levels; l++ {
		for role := Right; int(role) < a.rolesAt(l); role++ {
			na, nb := &a.nodes[l][role], &b.nodes[l][role]
			if na.valid != nb.valid || na.birth != nb.birth || (na.valid && !sameFloats(na.coeffs, nb.coeffs)) {
				return fmt.Sprintf("node %v%d", role, l)
			}
		}
	}
	return ""
}
