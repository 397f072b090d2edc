package durable

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/streamsum/swat/internal/core"
)

// The corruption-injection harness. A fixture store is built once from
// a deterministic history; every trial copies its directory, injects
// one fault (torn tail, bit flip, zeroed fsync hole) at a specific byte
// position, and recovers. The invariants, checked at every position:
//
//  1. recovery never panics and never returns an error for a damaged
//     log (only for operational failures);
//  2. the recovered arrival count p is a prefix of the true history:
//     floor(position) <= p <= len(history), where floor is the
//     arrivals durably intact before the injected fault;
//  3. the recovered tree is bit-for-bit identical to a golden twin fed
//     history[:p] directly — corrupt state is never served.

// fixtureOpts shapes the store so the WAL spans several segments with
// two retained snapshots and a live tail.
var fixtureOpts = Options{
	CheckpointEvery: 60,
	SegmentBytes:    600,
	KeepSnapshots:   2,
	Sync:            SyncAlways,
}

// buildFixture creates the pristine crashed store: appended but never
// closed, so a WAL tail rides behind the newest snapshot.
func buildFixture(t testing.TB) (dir string, history []float64) {
	t.Helper()
	batches := seededBatches(42, 45)
	dir, _ = buildStore(t, fixtureOpts, batches)
	return dir, flatten(batches)
}

// recSpan is one record located inside a segment file.
type recSpan struct {
	off  int64  // offset of the record header in the file
	end  int64  // offset one past the record
	last uint64 // last arrival the record covers
}

// scanSegment re-parses a segment independently of the recovery path,
// returning the record layout the injection sweeps steer by.
func scanSegment(t testing.TB, path string) (spans []recSpan, size int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:len(segMagic)]) != segMagic {
		t.Fatalf("%s: bad magic", path)
	}
	off := int64(len(segMagic))
	for off < int64(len(data)) {
		bodyLen := int64(binary.BigEndian.Uint32(data[off:]))
		first := binary.BigEndian.Uint64(data[off+recHeaderLen:])
		count := int64(binary.BigEndian.Uint32(data[off+recHeaderLen+8:]))
		end := off + recHeaderLen + bodyLen
		spans = append(spans, recSpan{off: off, end: end, last: first + uint64(count) - 1})
		off = end
	}
	return spans, int64(len(data))
}

// lastSegment returns the path and base of the newest WAL segment.
func lastSegment(t testing.TB, dir string) (string, uint64) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	last := segs[len(segs)-1]
	return filepath.Join(dir, last.name), last.base
}

// floorAt returns the arrivals guaranteed durable when the fault's
// first affected byte is at off: full records strictly before it.
func floorAt(spans []recSpan, base uint64, off int64) uint64 {
	floor := base - 1 // coverage of all earlier segments
	for _, sp := range spans {
		if sp.end <= off {
			floor = sp.last
		}
	}
	return floor
}

// checkRecovery runs one recovery over a damaged copy and enforces the
// harness invariants. Returns the recovered prefix length.
func checkRecovery(t *testing.T, dir string, history []float64, floor uint64, context string) uint64 {
	t.Helper()
	got, err := core.New(testGeom)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Recover(dir, got)
	if err != nil {
		t.Fatalf("%s: Recover: %v", context, err)
	}
	p := info.Arrivals
	if p > uint64(len(history)) {
		t.Fatalf("%s: recovered %d arrivals beyond true history %d", context, p, len(history))
	}
	if p < floor {
		t.Fatalf("%s: recovered %d arrivals, durable floor is %d", context, p, floor)
	}
	requireTreeEqual(t, got, goldenTree(t, history[:p]), context)
	return p
}

func TestTornTailEveryTruncationPoint(t *testing.T) {
	dir, history := buildFixture(t)
	segPath, base := lastSegment(t, dir)
	spans, size := scanSegment(t, segPath)

	for off := int64(len(segMagic)); off <= size; off++ {
		crash := copyDir(t, dir)
		target := filepath.Join(crash, filepath.Base(segPath))
		if err := os.Truncate(target, off); err != nil {
			t.Fatal(err)
		}
		floor := floorAt(spans, base, off)
		p := checkRecovery(t, crash, history, floor, "torn tail")
		// A truncation cannot manufacture arrivals: the prefix is
		// exactly the records that fit under the cut.
		if p != floor {
			t.Fatalf("truncate@%d: recovered %d, want exactly %d", off, p, floor)
		}
	}
}

func TestBitFlipSweepEveryWALByte(t *testing.T) {
	dir, history := buildFixture(t)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots stay intact in this sweep, so recovery always reaches
	// at least the newest one even when the flip lands in a segment
	// the snapshot already covers.
	snapFloor := snaps[0].arrivals

	for _, seg := range segs {
		segPath := filepath.Join(dir, seg.name)
		spans, size := scanSegment(t, segPath)
		pristine, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < size; off++ {
			crash := copyDir(t, dir)
			mutated := append([]byte(nil), pristine...)
			mutated[off] ^= 1 << (off % 8)
			if err := os.WriteFile(filepath.Join(crash, seg.name), mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			// A flip inside the magic voids the whole segment; any
			// other flip is caught no later than its record's
			// checksum. Replay stops there, but never below what the
			// records before the flip and the newest snapshot cover.
			floor := seg.base - 1
			if off >= int64(len(segMagic)) {
				floor = floorAt(spans, seg.base, off)
			}
			if snapFloor > floor {
				floor = snapFloor
			}
			checkRecovery(t, crash, history, floor, "bit flip")
		}
	}
}

func TestBitFlipSweepSnapshot(t *testing.T) {
	dir, history := buildFixture(t)
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("fixture retained %d snapshots, want 2", len(snaps))
	}
	newest := snaps[0].name
	pristine, err := os.ReadFile(filepath.Join(dir, newest))
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off < len(pristine); off++ {
		crash := copyDir(t, dir)
		mutated := append([]byte(nil), pristine...)
		mutated[off] ^= 1 << (off % 8)
		if err := os.WriteFile(filepath.Join(crash, newest), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		// The WAL is pruned only up to the OLDEST retained snapshot, so
		// a dead newest snapshot falls back to the older one and
		// replays the full tail: nothing durable is lost.
		p := checkRecovery(t, crash, history, uint64(len(history)), "snapshot flip")
		if p != uint64(len(history)) {
			t.Fatalf("snapshot flip@%d: recovered %d of %d", off, p, len(history))
		}
	}
}

func TestPartialFsyncZeroedRegions(t *testing.T) {
	dir, history := buildFixture(t)
	segPath, base := lastSegment(t, dir)
	spans, size := scanSegment(t, segPath)
	pristine, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	target := func(crash string) string { return filepath.Join(crash, filepath.Base(segPath)) }

	// Suffix loss: the tail past some point inside each record was
	// never written back. Start a few bytes into the record so the
	// header survives but the body lies.
	for _, sp := range spans {
		cut := sp.off + 3
		crash := copyDir(t, dir)
		mutated := append([]byte(nil), pristine...)
		for i := cut; i < size; i++ {
			mutated[i] = 0
		}
		if err := os.WriteFile(target(crash), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		checkRecovery(t, crash, history, floorAt(spans, base, cut), "zeroed suffix")
	}

	// Interior hole: one 64-byte block lost while later blocks
	// persisted. Recovery must stop at the hole — the intact records
	// beyond it are unreachable without risking a gap.
	const block = 64
	for start := int64(len(segMagic)); start < size; start += block {
		end := start + block
		if end > size {
			end = size
		}
		crash := copyDir(t, dir)
		mutated := append([]byte(nil), pristine...)
		for i := start; i < end; i++ {
			mutated[i] = 0
		}
		if err := os.WriteFile(target(crash), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		checkRecovery(t, crash, history, floorAt(spans, base, start), "zeroed block")
	}
}

// TestRecoverIsReadOnly pins the split between Recover (inspection,
// touches nothing) and Open (repairs the log in place).
func TestRecoverIsReadOnly(t *testing.T) {
	dir, history := buildFixture(t)
	segPath, _ := lastSegment(t, dir)
	crash := copyDir(t, dir)
	target := filepath.Join(crash, filepath.Base(segPath))
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, crash)

	got := freshTree(t)
	info, err := Recover(crash, got)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated {
		t.Fatal("corrupt tail not reported truncated")
	}
	if diff := dirDiff(before, dirListing(t, crash)); diff != "" {
		t.Fatalf("Recover modified the directory: %s", diff)
	}

	// Open repairs: the bad tail is physically cut, and a second
	// recovery sees a clean log with the same state.
	st, err := Open(crash, freshTree(t), fixtureOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got2 := freshTree(t)
	info2, err := Recover(crash, got2)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Truncated {
		t.Fatalf("log still truncated after Open repair: %+v", info2)
	}
	if info2.Arrivals != info.Arrivals {
		t.Fatalf("repair changed the prefix: %d != %d", info2.Arrivals, info.Arrivals)
	}
	requireTreeEqual(t, got2, goldenTree(t, history[:info.Arrivals]), "after repair")
}

// TestLegacySnapshotRefused pins the refusal of snapshots written in
// the field-by-field "SWAT" format that preceded the summary frame.
// Skipping such a snapshot would replay a WAL whose covered prefix is
// already pruned, and Open would then truncate the log behind the gap;
// so Open and Recover both fail with core.ErrLegacySnapshot and leave
// every segment and snapshot byte-identical.
func TestLegacySnapshotRefused(t *testing.T) {
	dir, _ := buildFixture(t)
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) < 2 {
		t.Fatalf("fixture retained %d snapshots (%v), want 2", len(snaps), err)
	}
	// An old-format header: magic, version 2, N, minLevel, k, then the
	// counters and state the old codec wrote field by field.
	legacy := []byte("SWAT\x00\x02")
	legacy = binary.BigEndian.AppendUint32(legacy, uint32(testGeom.WindowSize))
	legacy = binary.BigEndian.AppendUint16(legacy, 0)
	legacy = binary.BigEndian.AppendUint16(legacy, uint16(testGeom.Coefficients))
	legacy = append(legacy, make([]byte, 64)...)

	for _, c := range []struct {
		name  string
		which []snapInfo
	}{
		{"newest", snaps[:1]},
		{"every", snaps},
	} {
		crash := copyDir(t, dir)
		for _, sn := range c.which {
			if err := writeSnapshot(crash, sn.arrivals, legacy); err != nil {
				t.Fatal(err)
			}
		}
		before := dirListing(t, crash)
		if _, err := Recover(crash, freshTree(t)); !errors.Is(err, core.ErrLegacySnapshot) {
			t.Fatalf("%s: Recover returned %v, want core.ErrLegacySnapshot", c.name, err)
		}
		if diff := dirDiff(before, dirListing(t, crash)); diff != "" {
			t.Fatalf("%s: Recover modified the directory: %s", c.name, diff)
		}
		if st, err := Open(crash, freshTree(t), fixtureOpts); !errors.Is(err, core.ErrLegacySnapshot) {
			if err == nil {
				st.Close()
			}
			t.Fatalf("%s: Open returned %v, want core.ErrLegacySnapshot", c.name, err)
		}
		if diff := dirDiff(before, dirListing(t, crash)); diff != "" {
			t.Fatalf("%s: Open modified the directory: %s", c.name, diff)
		}
	}
}

func dirListing(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func dirDiff(a, b map[string][]byte) string {
	for name, data := range a {
		other, ok := b[name]
		if !ok {
			return name + " removed"
		}
		if string(data) != string(other) {
			return name + " changed"
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			return name + " added"
		}
	}
	return ""
}
