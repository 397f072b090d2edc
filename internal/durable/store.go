package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/streamsum/swat/internal/core"
)

// ErrClosed reports an operation on a closed Store.
var ErrClosed = errors.New("durable: closed")

// Store makes one SWAT tree crash-safe: every Append is logged to the
// WAL before it touches the tree, and a snapshot of the full tree state
// is rotated in every Options.CheckpointEvery arrivals. Open recovers
// the exact pre-crash tree (up to the fsync policy's loss bound) before
// returning. Methods are safe for concurrent use; reads of the tree go
// through the tree's own reader lock and need no store coordination.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options
	tree *core.Tree
	wal  *wal

	arrivals uint64 // durable arrival counter, == tree.Arrivals()
	lastCkpt uint64 // arrivals at the newest snapshot
	ckptBody int    // the newest snapshot's body length, a size hint
	info     RecoveryInfo
	closed   bool
}

// Open recovers the directory's durable state into tree and returns a
// store that logs all further appends there. The tree must be freshly
// constructed: when a snapshot exists its state (including geometry) is
// replaced wholesale by UnmarshalBinary; otherwise the WAL is replayed
// into it from empty. Recovery repairs the log in place — the tail
// after the first torn or corrupt record is physically truncated — so
// a subsequent Open sees a clean log.
func Open(dir string, tree *core.Tree, opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if tree == nil {
		return nil, fmt.Errorf("durable: nil tree")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open: %w", err)
	}
	if err := removeStaleTmp(dir); err != nil {
		return nil, err
	}
	info, scan, err := recoverTree(dir, tree)
	if err != nil {
		return nil, err
	}
	w, err := openWAL(dir, opts, info.Arrivals+1, scan)
	if err != nil {
		return nil, err
	}
	return &Store{
		dir:      dir,
		opts:     opts,
		tree:     tree,
		wal:      w,
		arrivals: info.Arrivals,
		lastCkpt: info.SnapshotArrivals,
		info:     info,
	}, nil
}

// Recover loads the newest valid snapshot and replays the surviving WAL
// tail through UpdateBatch, without opening the store for writing or
// modifying any file. It is the read-only half of Open, usable for
// inspection and for the recovery tests.
func Recover(dir string, tree *core.Tree) (RecoveryInfo, error) {
	if tree == nil {
		return RecoveryInfo{}, fmt.Errorf("durable: nil tree")
	}
	info, _, err := recoverTree(dir, tree)
	return info, err
}

// recoverTree performs snapshot load + WAL replay into tree and
// returns what happened plus the scan verdict for log repair.
func recoverTree(dir string, tree *core.Tree) (RecoveryInfo, *walScan, error) {
	var info RecoveryInfo
	sn, path, skipped, err := loadNewestSnapshot(dir, func(arr uint64, body []byte) error {
		if err := tree.UnmarshalBinary(body); err != nil {
			return err
		}
		if tree.Arrivals() != int64(arr) {
			return fmt.Errorf("durable: snapshot names %d arrivals but tree restored %d", arr, tree.Arrivals())
		}
		return nil
	})
	if err != nil {
		return info, nil, err
	}
	info.SnapshotArrivals = sn.arrivals
	info.SnapshotPath = path
	info.SnapshotsSkipped = skipped
	if path == "" && tree.Arrivals() != 0 {
		return info, nil, fmt.Errorf("durable: no usable snapshot but the tree already holds %d arrivals; pass a fresh tree", tree.Arrivals())
	}
	scan, err := replayWAL(dir, sn.arrivals, func(_ uint64, values []float64) error {
		tree.UpdateBatch(values)
		return nil
	})
	if err != nil {
		return info, nil, err
	}
	info.Arrivals = scan.next
	info.ReplayedRecords = scan.records
	info.ReplayedValues = scan.values
	info.Truncated = scan.truncated
	info.TruncatedSegment = scan.truncSeg
	info.TruncatedOffset = scan.truncOffset
	info.TruncateReason = scan.reason
	return info, scan, nil
}

// removeStaleTmp clears half-written snapshot temporaries left by a
// crash mid-checkpoint (the rename never happened, so they shadow
// nothing).
func removeStaleTmp(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("durable: remove stale tmp: %w", err)
			}
		}
	}
	return nil
}

// Append logs one batch of consecutive stream values and then applies
// it to the tree, in that order: a crash between the two replays the
// batch on recovery. Under SyncAlways the batch is durable when Append
// returns.
func (s *Store) Append(values []float64) error {
	if len(values) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.wal.append(s.arrivals+1, values); err != nil {
		return err
	}
	s.tree.UpdateBatch(values)
	s.arrivals += uint64(len(values))
	if s.opts.CheckpointEvery > 0 && s.arrivals-s.lastCkpt >= uint64(s.opts.CheckpointEvery) {
		return s.checkpointLocked()
	}
	return nil
}

// Append1 logs and applies a single value.
func (s *Store) Append1(v float64) error {
	vs := [1]float64{v}
	return s.Append(vs[:])
}

// Checkpoint forces a snapshot now, independent of the automatic
// schedule. It is a durability point under every sync policy.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.arrivals == s.lastCkpt {
		return nil // nothing new to cover
	}
	return s.checkpointLocked()
}

// checkpointLocked snapshots the tree, rotates the WAL, and prunes
// snapshots and segments the retained snapshots cover. Caller holds mu.
func (s *Store) checkpointLocked() error {
	// The summary is appended straight after the header's room, sized
	// by the previous checkpoint's body.
	file := s.tree.AppendSummary(make([]byte, snapHdrLen, snapHdrLen+s.ckptBody))
	s.ckptBody = len(file) - snapHdrLen
	if err := writeSnapshotFile(s.dir, s.arrivals, sealSnapshot(file, s.arrivals)); err != nil {
		return err
	}
	s.lastCkpt = s.arrivals
	// Rotation starts a fresh segment at arrivals+1, leaving every
	// older segment fully covered by some retained snapshot or the new
	// one; prune only up to the oldest retained snapshot so a corrupt
	// newest snapshot still has a replayable log behind it.
	if err := s.wal.rotate(); err != nil {
		return err
	}
	covered, err := pruneSnapshots(s.dir, s.opts.KeepSnapshots)
	if err != nil {
		return err
	}
	return pruneSegments(s.dir, covered)
}

// Sync flushes any buffered WAL appends to stable storage (a no-op
// under SyncAlways).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.wal.sync()
}

// Close takes a final checkpoint when arrivals advanced past the last
// one, then flushes and closes the log. The store must not be used
// after Close; Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var errs []error
	if s.arrivals != s.lastCkpt {
		if err := s.checkpointLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.wal.close(); err != nil {
		errs = append(errs, err)
	}
	s.closed = true
	return errors.Join(errs...)
}

// Arrivals returns the durable arrival counter (equal to the tree's).
func (s *Store) Arrivals() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.arrivals
}

// Recovery reports what Open recovered.
func (s *Store) Recovery() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.info
}

// Tree returns the tree this store persists. Queries go straight to it;
// writes must go through Append, or the log and tree diverge.
func (s *Store) Tree() *core.Tree { return s.tree }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }
