package core

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/stream"
)

func TestSnapshotRoundTrip(t *testing.T) {
	for _, opts := range []Options{
		{WindowSize: 64},
		{WindowSize: 64, Coefficients: 4},
		{WindowSize: 64, MinLevel: 2},
		{WindowSize: 16, Coefficients: 2, MinLevel: 1},
	} {
		orig, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		src := stream.Uniform(7)
		for i := 0; i < 150; i++ { // an "awkward" non-aligned arrival count
			orig.Update(src.Next())
		}
		data, err := orig.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := New(Options{WindowSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.UnmarshalBinary(data); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if restored.WindowSize() != orig.WindowSize() ||
			restored.Coefficients() != orig.Coefficients() ||
			restored.MinLevel() != orig.MinLevel() ||
			restored.Arrivals() != orig.Arrivals() ||
			restored.NodeUpdates() != orig.NodeUpdates() {
			t.Fatalf("%+v: geometry/counters differ after restore", opts)
		}
		// Node-for-node equality.
		on, rn := orig.Nodes(), restored.Nodes()
		if len(on) != len(rn) {
			t.Fatalf("node counts differ: %d vs %d", len(on), len(rn))
		}
		for i := range on {
			if on[i].String() != rn[i].String() || on[i].Valid != rn[i].Valid {
				t.Fatalf("node %d differs: %v vs %v", i, on[i], rn[i])
			}
			for j := range on[i].Coeffs {
				if on[i].Coeffs[j] != rn[i].Coeffs[j] {
					t.Fatalf("node %d coeff %d differs", i, j)
				}
			}
		}
		// Future behaviour must be identical: feed both the same suffix
		// and compare query answers.
		src2a := stream.Uniform(99)
		src2b := stream.Uniform(99)
		for i := 0; i < 100; i++ {
			orig.Update(src2a.Next())
			restored.Update(src2b.Next())
			a, errA := orig.PointQuery(0)
			b, errB := restored.PointQuery(0)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("error divergence after restore: %v vs %v", errA, errB)
			}
			if errA == nil && a != b {
				t.Fatalf("behaviour diverged after restore: %v vs %v", a, b)
			}
		}
	}
}

func TestSnapshotColdTree(t *testing.T) {
	orig, _ := New(Options{WindowSize: 16})
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := New(Options{WindowSize: 16})
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.Arrivals() != 0 || restored.Ready() {
		t.Error("cold snapshot restored as warm")
	}
}

// TestUnmarshalRejectsCorruption feeds UnmarshalBinary damaged summary
// frames. Cases past the frame layer carry a recomputed checksum (see
// hostileBody), so each one reaches the check it names, and every
// rejection must leave the receiver untouched.
func TestUnmarshalRejectsCorruption(t *testing.T) {
	orig, _ := New(Options{WindowSize: 16})
	for i := 0; i < 32; i++ {
		orig.Update(float64(i))
	}
	good, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body := good[codec.HeaderLen:]
	// edit copies the body, applies f and reframes it with a valid CRC.
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), body...)
		f(b)
		return hostileBody(b)
	}
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 1
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "core: summary frame: "},
		{"bad checksum", badCRC, "core: summary frame: "},
		{"torn frame", good[:len(good)/2], "core: summary frame: "},
		{"trailing junk", append(append([]byte(nil), good...), 0xFF), "core: 1 trailing bytes after summary frame"},
		{"bad magic", edit(func(b []byte) { copy(b, "NOPE") }), "core: not a SWAT summary"},
		{"bad version", edit(func(b []byte) { b[4] = 0xFF }), "core: unsupported summary version 255"},
		{"bad geometry", edit(func(b []byte) { binary.BigEndian.PutUint32(b[5:], 7) }), "core: window size must be a power of two >= 4, got 7"},
		{"truncated body", hostileBody(body[:len(body)/2]), "core: summary truncated in node "},
		{"legacy snapshot", append([]byte("SWAT\x00\x02"), body...), ErrLegacySnapshot.Error()},
	}
	restored, _ := New(Options{WindowSize: 16})
	twin, _ := New(Options{WindowSize: 16})
	for i := 0; i < 5; i++ {
		restored.Update(float64(-i))
		twin.Update(float64(-i))
	}
	for _, c := range cases {
		err := restored.UnmarshalBinary(c.data)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
		if d := stateDiff(&twin.treeState, &restored.treeState); d != "" {
			t.Fatalf("%s: failed restore changed the receiver's %s", c.name, d)
		}
	}
	if err := restored.UnmarshalBinary(good); err != nil {
		t.Fatalf("valid snapshot rejected after failures: %v", err)
	}
	if restored.Arrivals() != 32 {
		t.Errorf("Arrivals = %d after restore", restored.Arrivals())
	}
}

func TestSnapshotPreservesInvariant(t *testing.T) {
	// The 1-coefficient invariant must keep holding across a
	// checkpoint/restore boundary.
	const n = 32
	orig, _ := New(Options{WindowSize: n})
	shadow, _ := stream.NewWindow(4 * n)
	src := stream.RandomWalk(3, 50, 3, 0, 100)
	for i := 0; i < 3*n; i++ {
		v := src.Next()
		orig.Update(v)
		shadow.Push(v)
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := New(Options{WindowSize: 4})
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := src.Next()
		restored.Update(v)
		shadow.Push(v)
		for _, ni := range restored.Nodes() {
			want, err := shadow.Mean(ni.Start, ni.End)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ni.Coeffs[0]-want) > 1e-9 {
				t.Fatalf("node %v: %v != true mean %v after restore", ni, ni.Coeffs[0], want)
			}
		}
	}
}
