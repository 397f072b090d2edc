// Package durable is the crash-safe persistence layer under SWAT's
// in-memory summaries: a checksummed write-ahead log of arrival batches
// paired with atomically rotated snapshots, so a process that dies —
// including kill -9 mid-write — restarts with the exact tree it had at
// its last durable point instead of a cold window.
//
// # On-disk layout
//
// A store owns one directory:
//
//	wal-<first arrival, hex>.seg   log segments, in arrival order
//	snap-<arrivals, hex>.ckpt      tree snapshots, newest wins
//
// Every WAL record is length-prefixed and carries a CRC32C of its
// payload, framed by the shared internal/codec record format that the
// wire protocol's binary frames also use:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//	payload: u64 firstArrival | u32 count | count × f64 (IEEE bits)
//
// A record holds one UpdateBatch: count consecutive stream values whose
// first element is arrival number firstArrival (1-based). Segments open
// with an 8-byte magic and rotate at Options.SegmentBytes. Snapshots
// wrap the tree's summary frame (Tree.MarshalBinary, the same encoding
// handoffs and roll-ups ship) in a magic + CRC32C header and are
// written tmp-then-rename, so a half-written snapshot can never shadow
// a good one. A snapshot in the older field-by-field format fails
// recovery with core.ErrLegacySnapshot before any file is touched.
//
// # Recovery invariants
//
// Recover loads the newest snapshot that passes its checksum (falling
// back to older ones), then replays the WAL tail through
// Tree.UpdateBatch. Replay stops at the first record that fails its
// checksum, is malformed, or breaks arrival contiguity: everything
// before that point is applied, everything after is dropped. Recovery
// therefore always yields a *prefix* of the true arrival history —
// never torn, interleaved, or invented state — and reports exactly how
// long that prefix is. The corruption-injection tests sweep every byte
// of a segment (bit flips, torn tails, zeroed fsync holes) and hold the
// recovered tree bit-for-bit equal to a golden twin fed the surviving
// prefix directly.
//
// How much can be lost is bounded by the fsync policy: SyncAlways loses
// at most the one append in flight at the crash; SyncInterval loses at
// most SyncEvery appends; SyncNever is bounded only by the last
// rotation, checkpoint, or explicit Sync. Options.LossBoundRecords
// states the bound, and RecoveryInfo quantifies what a specific
// recovery actually replayed and dropped.
//
//swat:deterministic
package durable

import (
	"fmt"
)

// SyncPolicy controls when the WAL fsyncs its active segment.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an Append that returned is
	// durable. The safest and slowest policy, and the default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs every Options.SyncEvery appends (and on
	// rotation, checkpoint, and close). A crash loses at most the last
	// SyncEvery appends.
	SyncInterval
	// SyncNever leaves flushing to the OS; the log is only guaranteed
	// durable at rotation, checkpoint, Sync, and Close. Fastest, with
	// an unbounded in-flight window.
	SyncNever
)

// Options tunes a Store. The zero value is usable: 1 MiB segments,
// fsync on every append, a checkpoint every 4096 arrivals, two retained
// snapshots.
type Options struct {
	// SegmentBytes rotates the active WAL segment once it exceeds this
	// size. 0 means 1 MiB.
	SegmentBytes int64
	// Sync is the fsync policy for WAL appends.
	Sync SyncPolicy
	// SyncEvery is the append interval of SyncInterval. 0 means 64.
	SyncEvery int
	// CheckpointEvery takes a snapshot every that many arrivals and
	// prunes WAL segments the retained snapshots cover. 0 means 4096;
	// negative disables automatic checkpoints (Checkpoint can still be
	// called explicitly).
	CheckpointEvery int64
	// KeepSnapshots is how many snapshots to retain; older ones are
	// deleted after a successful checkpoint. WAL segments are pruned
	// only up to the *oldest* retained snapshot, so a corrupt newest
	// snapshot still leaves a replayable older snapshot + tail. 0
	// means 2.
	KeepSnapshots int
}

func (o Options) withDefaults() (Options, error) {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.SegmentBytes < 0 {
		return o, fmt.Errorf("durable: negative segment size %d", o.SegmentBytes)
	}
	if o.Sync < SyncAlways || o.Sync > SyncNever {
		return o, fmt.Errorf("durable: unknown sync policy %d", o.Sync)
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 64
	}
	if o.SyncEvery < 0 {
		return o, fmt.Errorf("durable: negative sync interval %d", o.SyncEvery)
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 4096
	}
	if o.KeepSnapshots == 0 {
		o.KeepSnapshots = 2
	}
	if o.KeepSnapshots < 0 {
		return o, fmt.Errorf("durable: negative snapshot retention %d", o.KeepSnapshots)
	}
	return o, nil
}

// LossBoundRecords is the policy's bound on how many acknowledged
// appends a crash can lose: 1 for SyncAlways (only the append in flight
// when the process died), SyncEvery for SyncInterval, and -1 (no bound
// short of the last checkpoint/rotation/Sync) for SyncNever.
func (o Options) LossBoundRecords() int {
	switch o.Sync {
	case SyncAlways:
		return 1
	case SyncInterval:
		if o.SyncEvery == 0 {
			return 64
		}
		return o.SyncEvery
	default:
		return -1
	}
}

// RecoveryInfo quantifies one recovery: where the state came from and
// how much of the log survived. It is the store's bounded-staleness
// report — Arrivals is exactly the length of the recovered prefix of
// the true history.
type RecoveryInfo struct {
	// Arrivals is the recovered durable arrival count: snapshot
	// coverage plus replayed WAL tail.
	Arrivals uint64
	// SnapshotArrivals is the arrival count of the snapshot the
	// recovery loaded (0 when it replayed the WAL from empty).
	SnapshotArrivals uint64
	// SnapshotPath is the loaded snapshot file ("" when none).
	SnapshotPath string
	// SnapshotsSkipped counts newer snapshots that were rejected as
	// corrupt before one loaded.
	SnapshotsSkipped int
	// ReplayedRecords and ReplayedValues count the WAL tail applied on
	// top of the snapshot.
	ReplayedRecords int
	ReplayedValues  uint64
	// Truncated reports that replay stopped before the physical end of
	// the log — a torn or corrupt record was found and the tail after
	// it dropped.
	Truncated bool
	// TruncatedSegment/TruncatedOffset locate the first bad byte;
	// TruncateReason says what was wrong (checksum, length, gap, ...).
	TruncatedSegment string
	TruncatedOffset  int64
	TruncateReason   string
}

// String summarizes the recovery for logs.
func (ri RecoveryInfo) String() string {
	s := fmt.Sprintf("recovered %d arrivals (snapshot %d + %d records / %d values replayed)",
		ri.Arrivals, ri.SnapshotArrivals, ri.ReplayedRecords, ri.ReplayedValues)
	if ri.SnapshotsSkipped > 0 {
		s += fmt.Sprintf(", %d corrupt snapshots skipped", ri.SnapshotsSkipped)
	}
	if ri.Truncated {
		s += fmt.Sprintf(", log truncated at %s+%d (%s)", ri.TruncatedSegment, ri.TruncatedOffset, ri.TruncateReason)
	}
	return s
}
