package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
)

// Snapshot file framing:
//
//	"SWATCKPT" | u32 crc32c(arrivals|body) | u64 arrivals | body
//
// body is the tree's summary frame (Tree.AppendSummary, which is
// Tree.MarshalBinary), appended straight after the header's room in the
// file's buffer; this layer only frames and checksums it.
// Files are named snap-<arrivals>.ckpt and written tmp-then-rename with
// fsyncs on both the file and the directory, so a snapshot either
// exists completely or not at all.
const (
	snapMagic  = "SWATCKPT"
	snapPrefix = "snap-"
	snapExt    = ".ckpt"
)

func snapName(arrivals uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, arrivals, snapExt)
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapExt) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapExt)
	if len(hex) != 16 {
		return 0, false
	}
	arr, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return arr, true
}

// snapInfo is one snapshot found on disk.
type snapInfo struct {
	name     string
	arrivals uint64
}

// listSnapshots returns the directory's snapshots, newest first.
func listSnapshots(dir string) ([]snapInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapInfo
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if arr, ok := parseSnapName(e.Name()); ok {
			snaps = append(snaps, snapInfo{name: e.Name(), arrivals: arr})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].arrivals > snaps[j].arrivals })
	return snaps, nil
}

// snapHdrLen is the framing ahead of a snapshot's body: the magic, the
// CRC and the arrival count.
const snapHdrLen = len(snapMagic) + 4 + 8

// sealSnapshot completes a snapshot file in place and returns it: file
// holds snapHdrLen bytes of room and then the body, so the body is
// written once, straight into the file's buffer. It fills in the
// magic, the arrival count and the CRC over both.
func sealSnapshot(file []byte, arrivals uint64) []byte {
	copy(file, snapMagic)
	binary.BigEndian.PutUint64(file[len(snapMagic)+4:], arrivals)
	binary.BigEndian.PutUint32(file[len(snapMagic):], codec.Checksum(file[len(snapMagic)+4:]))
	return file
}

// writeSnapshotFile atomically persists a sealed snapshot file covering
// the given arrival count.
func writeSnapshotFile(dir string, arrivals uint64, file []byte) error {
	path := filepath.Join(dir, snapName(arrivals))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot tmp: %w", err)
	}
	if _, err := f.Write(file); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot rename: %w", err)
	}
	return syncDir(dir)
}

// readSnapshot loads and verifies one snapshot file, returning its
// arrival count and body.
func readSnapshot(path string) (uint64, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(data) < snapHdrLen || string(data[:len(snapMagic)]) != snapMagic {
		return 0, nil, fmt.Errorf("durable: %s: not a snapshot", filepath.Base(path))
	}
	wantCRC := binary.BigEndian.Uint32(data[len(snapMagic):])
	rest := data[len(snapMagic)+4:]
	if codec.Checksum(rest) != wantCRC {
		return 0, nil, fmt.Errorf("durable: %s: snapshot checksum mismatch", filepath.Base(path))
	}
	arrivals := binary.BigEndian.Uint64(rest[:8])
	return arrivals, rest[8:], nil
}

// loadNewestSnapshot tries snapshots newest-first until one verifies
// and restore accepts its body. It returns the loaded snapshot (zero
// snapInfo when none loaded) and how many newer ones were rejected. A
// body in the legacy snapshot format is an error, not a skip: the WAL
// its snapshot covered has been pruned, so falling back would replay a
// gap and let Open truncate the log behind it.
func loadNewestSnapshot(dir string, restore func(arrivals uint64, body []byte) error) (snapInfo, string, int, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return snapInfo{}, "", 0, err
	}
	skipped := 0
	for _, sn := range snaps {
		path := filepath.Join(dir, sn.name)
		arr, body, err := readSnapshot(path)
		if err == nil && arr == sn.arrivals {
			rerr := restore(arr, body)
			if rerr == nil {
				return sn, path, skipped, nil
			}
			if errors.Is(rerr, core.ErrLegacySnapshot) {
				return snapInfo{}, "", skipped, fmt.Errorf("durable: %s: %w", sn.name, rerr)
			}
		}
		skipped++
	}
	return snapInfo{}, "", skipped, nil
}

// pruneSnapshots removes all but the newest keep snapshots and returns
// the oldest retained arrival count (0 when none), which bounds WAL
// pruning.
func pruneSnapshots(dir string, keep int) (uint64, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	if len(snaps) == 0 {
		return 0, nil
	}
	if keep < 1 {
		keep = 1
	}
	if len(snaps) > keep {
		for _, sn := range snaps[keep:] {
			if err := os.Remove(filepath.Join(dir, sn.name)); err != nil {
				return 0, fmt.Errorf("durable: prune snapshot: %w", err)
			}
		}
		snaps = snaps[:keep]
	}
	return snaps[len(snaps)-1].arrivals, nil
}
