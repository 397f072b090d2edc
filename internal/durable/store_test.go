package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRecoverAfterCleanClose(t *testing.T) {
	batches := seededBatches(1, 40)
	dir, st := buildStore(t, Options{}, batches)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := goldenTree(t, flatten(batches))

	got := freshTree(t)
	info, err := Recover(dir, got)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	requireTreeEqual(t, got, want, "after clean close")
	if info.Arrivals != uint64(want.Arrivals()) {
		t.Errorf("recovered %d arrivals, want %d", info.Arrivals, want.Arrivals())
	}
	// Close checkpoints, so the reopen loads a snapshot and replays
	// nothing.
	if info.SnapshotArrivals != info.Arrivals || info.ReplayedRecords != 0 {
		t.Errorf("close checkpoint not used: %+v", info)
	}
	if info.Truncated {
		t.Errorf("clean log reported truncated: %+v", info)
	}
}

func TestRecoverAfterAbandonedStore(t *testing.T) {
	// Abandoning the store without Close models kill -9: under
	// SyncAlways every acknowledged append must already be on disk.
	batches := seededBatches(2, 30)
	dir, st := buildStore(t, Options{Sync: SyncAlways}, batches)
	_ = st // never closed

	crash := copyDir(t, dir)
	got := freshTree(t)
	info, err := Recover(crash, got)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	want := goldenTree(t, flatten(batches))
	requireTreeEqual(t, got, want, "after abandoned store")
	if info.Arrivals != uint64(want.Arrivals()) {
		t.Errorf("recovered %d arrivals, want %d", info.Arrivals, want.Arrivals())
	}
}

func TestCheckpointRotationAndPruning(t *testing.T) {
	batches := seededBatches(3, 120)
	opts := Options{CheckpointEvery: 50, SegmentBytes: 512, KeepSnapshots: 2}
	dir, st := buildStore(t, opts, batches)

	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || len(snaps) > 2 {
		t.Errorf("retained %d snapshots, want 1..2", len(snaps))
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Everything below the oldest retained snapshot must be pruned.
	oldest := snaps[len(snaps)-1].arrivals
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].base <= oldest+1 {
			t.Errorf("segment %s fully covered by snapshot %d but not pruned", seg.name, oldest)
		}
	}

	// Recovery across snapshot + multi-segment tail stays exact.
	crash := copyDir(t, dir)
	got := freshTree(t)
	if _, err := Recover(crash, got); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	requireTreeEqual(t, got, goldenTree(t, flatten(batches)), "after rotation+pruning")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesAppending(t *testing.T) {
	first := seededBatches(4, 25)
	dir, st := buildStore(t, Options{CheckpointEvery: 40}, first)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and keep going; the log must continue seamlessly.
	tr := freshTree(t)
	st2, err := Open(dir, tr, Options{CheckpointEvery: 40})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	second := seededBatches(5, 25)
	for _, b := range second {
		if err := st2.Append(b); err != nil {
			t.Fatalf("Append after reopen: %v", err)
		}
	}
	all := append(flatten(first), flatten(second)...)
	requireTreeEqual(t, tr, goldenTree(t, all), "live tree after reopen")
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	got := freshTree(t)
	if _, err := Recover(dir, got); err != nil {
		t.Fatal(err)
	}
	requireTreeEqual(t, got, goldenTree(t, all), "recovery after reopen")
}

func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"interval", Options{Sync: SyncInterval, SyncEvery: 8}},
		{"never", Options{Sync: SyncNever}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batches := seededBatches(6, 30)
			dir, st := buildStore(t, tc.opts, batches)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			got := freshTree(t)
			if _, err := Recover(dir, got); err != nil {
				t.Fatal(err)
			}
			requireTreeEqual(t, got, goldenTree(t, flatten(batches)), tc.name)
		})
	}
}

func TestLossBoundRecords(t *testing.T) {
	if got := (Options{Sync: SyncAlways}).LossBoundRecords(); got != 1 {
		t.Errorf("SyncAlways bound = %d, want 1", got)
	}
	if got := (Options{Sync: SyncInterval, SyncEvery: 16}).LossBoundRecords(); got != 16 {
		t.Errorf("SyncInterval bound = %d, want 16", got)
	}
	if got := (Options{Sync: SyncNever}).LossBoundRecords(); got != -1 {
		t.Errorf("SyncNever bound = %d, want -1", got)
	}
}

func TestStoreErrors(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, freshTree(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append1(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := st.Append1(2); err != ErrClosed {
		t.Errorf("Append after Close = %v, want ErrClosed", err)
	}
	if err := st.Sync(); err != ErrClosed {
		t.Errorf("Sync after Close = %v, want ErrClosed", err)
	}

	// A non-fresh tree without a snapshot on disk is a caller bug.
	used := freshTree(t)
	used.UpdateBatch([]float64{1, 2, 3})
	if _, err := Open(t.TempDir(), used, Options{}); err == nil || !strings.Contains(err.Error(), "fresh tree") {
		t.Errorf("Open with used tree = %v, want fresh-tree error", err)
	}

	// Recover on a directory that does not exist reports it.
	if _, err := Recover(filepath.Join(dir, "missing"), freshTree(t)); err == nil {
		t.Error("Recover on missing dir succeeded")
	}

	if _, err := Open(t.TempDir(), nil, Options{}); err == nil {
		t.Error("Open with nil tree succeeded")
	}
	if _, err := Open(t.TempDir(), freshTree(t), Options{SegmentBytes: -1}); err == nil {
		t.Error("Open with negative segment size succeeded")
	}
}

func TestStaleSnapshotTmpRemoved(t *testing.T) {
	batches := seededBatches(7, 10)
	dir, st := buildStore(t, Options{}, batches)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-checkpoint leaves a .tmp the rename never promoted.
	tmp := filepath.Join(dir, snapName(999)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, freshTree(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("stale tmp survived reopen: %v", err)
	}
	requireTreeEqual(t, st2.Tree(), goldenTree(t, flatten(batches)), "after tmp cleanup")
}

// TestSnapshotFileFraming pins a checkpoint's file byte for byte to the
// snapshot framing, built here independently of the store:
// "SWATCKPT" | u32 crc32c(arrivals|body) | u64 arrivals | body, where
// body is the tree's MarshalBinary. A second checkpoint (sized by the
// first) is pinned the same way.
func TestSnapshotFileFraming(t *testing.T) {
	dir := t.TempDir()
	tree := freshTree(t)
	st, err := Open(dir, tree, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	values := flatten(seededBatches(11, 60))
	for _, part := range [][]float64{values[:len(values)/3], values[len(values)/3:]} {
		if err := st.Append(part); err != nil {
			t.Fatal(err)
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		arrivals := uint64(tree.Arrivals())
		got, err := os.ReadFile(filepath.Join(dir, snapName(arrivals)))
		if err != nil {
			t.Fatal(err)
		}
		covered := binary.BigEndian.AppendUint64(nil, arrivals)
		covered = append(covered, treeBytes(t, goldenTree(t, values[:arrivals]))...)
		want := append([]byte("SWATCKPT"), binary.BigEndian.AppendUint32(nil, crc32.Checksum(covered, crc32.MakeTable(crc32.Castagnoli)))...)
		want = append(want, covered...)
		if !bytes.Equal(got, want) {
			t.Fatalf("snapshot at %d arrivals: %d bytes differ from the %d-byte framing", arrivals, len(got), len(want))
		}
	}
}
