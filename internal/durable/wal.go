package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/streamsum/swat/internal/codec"
)

// Segment file framing. Every segment opens with an 8-byte magic;
// records follow back to back, each framed by the shared
// internal/codec record format (u32 len | u32 crc32c | body) that the
// wire protocol's binary frames also use. The segment's file name
// carries the arrival number of its first record, so recovery can
// order segments and prune covered ones without reading them.
const (
	segMagic  = "SWATWAL1"
	segPrefix = "wal-"
	segExt    = ".seg"

	recHeaderLen = codec.HeaderLen
	recMinBody   = 12 // u64 firstArrival | u32 count
	// maxRecordBytes rejects absurd length prefixes before allocating:
	// a record is one UpdateBatch, and no caller batches gigabytes.
	maxRecordBytes = 16 << 20
)

func segName(base uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, base, segExt)
}

// parseSegName extracts the base arrival from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segExt) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segExt)
	if len(hex) != 16 {
		return 0, false
	}
	base, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// segInfo is one segment found on disk.
type segInfo struct {
	name string
	base uint64 // arrival number of the segment's first record
}

// listSegments returns the directory's WAL segments in arrival order.
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if base, ok := parseSegName(e.Name()); ok {
			segs = append(segs, segInfo{name: e.Name(), base: base})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// encodeRecord appends one framed record to buf and returns it. The
// framing is the shared codec's; only the body layout (firstArrival,
// count, IEEE bits) is this package's.
func encodeRecord(buf []byte, first uint64, values []float64) []byte {
	start := len(buf)
	buf = codec.Begin(buf)
	var hdr [recMinBody]byte
	binary.BigEndian.PutUint64(hdr[0:], first)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(values)))
	buf = append(buf, hdr[:]...)
	for _, v := range values {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
		buf = append(buf, b[:]...)
	}
	return codec.Finish(buf, start)
}

// wal is the append side of a segment log. It is not internally locked;
// the owning Store serializes access.
type wal struct {
	dir  string
	opts Options

	f       *os.File
	segSize int64
	next    uint64 // arrival number the next record must start at
	pending int    // appends since the last fsync
	buf     []byte // encode scratch
}

// openWAL positions the log for appending arrival next+... . repair is
// the recovery's verdict: the surviving tail is physically truncated at
// the first bad byte and any segments past it removed, so the on-disk
// log is exactly the prefix that recovery replayed.
func openWAL(dir string, opts Options, next uint64, repair *walScan) (*wal, error) {
	w := &wal{dir: dir, opts: opts, next: next}
	if repair != nil {
		if err := repair.apply(dir); err != nil {
			return nil, err
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return w, w.rotate()
	}
	// Append into the last surviving segment.
	last := segs[len(segs)-1]
	f, err := os.OpenFile(filepath.Join(dir, last.name), os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.f, w.segSize = f, size
	return w, nil
}

// rotate closes the active segment and starts a fresh one whose first
// record will be arrival w.next. The old segment is fsynced on the way
// out so rotation is a durability point under every sync policy.
func (w *wal) rotate() error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("durable: sync segment: %w", err)
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("durable: close segment: %w", err)
		}
		w.f = nil
		w.pending = 0
	}
	path := filepath.Join(w.dir, segName(w.next))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("durable: segment header: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.segSize = f, int64(len(segMagic))
	return nil
}

// append logs one batch starting at arrival first. Contiguity is
// enforced: first must be exactly the next unlogged arrival.
func (w *wal) append(first uint64, values []float64) error {
	if first != w.next {
		return fmt.Errorf("durable: append at arrival %d, log expects %d", first, w.next)
	}
	if len(values) == 0 {
		return nil
	}
	if recHeaderLen+recMinBody+8*len(values) > maxRecordBytes {
		return fmt.Errorf("durable: batch of %d values exceeds the %d-byte record limit", len(values), maxRecordBytes)
	}
	if w.segSize >= w.opts.SegmentBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	w.buf = encodeRecord(w.buf[:0], first, values)
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	w.segSize += int64(len(w.buf))
	w.next = first + uint64(len(values))
	w.pending++
	switch w.opts.Sync {
	case SyncAlways:
		return w.sync()
	case SyncInterval:
		if w.pending >= w.opts.SyncEvery {
			return w.sync()
		}
	}
	return nil
}

// sync flushes the active segment to stable storage.
func (w *wal) sync() error {
	if w.f == nil || w.pending == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	w.pending = 0
	return nil
}

// close fsyncs and closes the active segment.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// pruneSegments deletes segments every record of which is at or below
// arrival covered (the oldest retained snapshot's coverage). A
// segment's coverage ends where the next segment begins, so only
// segments with a successor based at or below covered+1 are removable;
// the active tail segment always survives.
func pruneSegments(dir string, covered uint64) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].base <= covered+1 {
			if err := os.Remove(filepath.Join(dir, segs[i].name)); err != nil {
				return fmt.Errorf("durable: prune segment: %w", err)
			}
		}
	}
	return syncDir(dir)
}

// walScan is the result of scanning the log during recovery: how far
// replay got and where (if anywhere) the log must be cut.
type walScan struct {
	records int
	values  uint64
	next    uint64 // arrival after the last applied record

	truncated   bool
	truncSeg    string // segment file holding the first bad byte
	truncOffset int64  // offset of the first bad byte in that segment
	reason      string
	dropSegs    []string // segments after the bad one, to be removed
}

// apply physically repairs the log: truncates the bad segment at the
// first bad byte and removes everything after it, leaving the on-disk
// log equal to the replayed prefix.
func (sc *walScan) apply(dir string) error {
	if !sc.truncated {
		return nil
	}
	if sc.truncSeg != "" {
		path := filepath.Join(dir, sc.truncSeg)
		if sc.truncOffset <= int64(len(segMagic)) {
			// Nothing valid in the segment at all — drop it entirely.
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("durable: drop segment: %w", err)
			}
		} else if err := os.Truncate(path, sc.truncOffset); err != nil {
			return fmt.Errorf("durable: truncate segment: %w", err)
		}
	}
	for _, name := range sc.dropSegs {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("durable: drop segment: %w", err)
		}
	}
	return syncDir(dir)
}

// replayWAL scans the directory's segments in order and hands every
// intact record with arrivals beyond from to apply, clipping a record
// that straddles the boundary. The scan stops — marking the log for
// truncation — at the first record that fails its checksum, is
// malformed, or breaks arrival contiguity, and at the first segment
// whose base leaves a gap. apply must not retain the values slice.
func replayWAL(dir string, from uint64, apply func(first uint64, values []float64) error) (*walScan, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	sc := &walScan{next: from}
	stopAt := func(i int, off int64, reason string) {
		sc.truncated = true
		sc.truncSeg = segs[i].name
		sc.truncOffset = off
		sc.reason = reason
		for _, s := range segs[i+1:] {
			sc.dropSegs = append(sc.dropSegs, s.name)
		}
	}
	for i, seg := range segs {
		if seg.base > sc.next+1 {
			// The log jumps past the next needed arrival: the segments
			// from here on are unreachable from the recovered state.
			stopAt(i, 0, fmt.Sprintf("segment starts at arrival %d, next needed is %d", seg.base, sc.next+1))
			break
		}
		stop, err := replaySegment(dir, seg, sc, apply, func(off int64, reason string) {
			stopAt(i, off, reason)
		})
		if err != nil {
			return nil, err
		}
		if stop {
			break
		}
	}
	return sc, nil
}

// replaySegment scans one segment; bad marks the first invalid byte.
// It returns true when the scan must stop (corruption found).
func replaySegment(dir string, seg segInfo, sc *walScan, apply func(uint64, []float64) error, bad func(int64, string)) (bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, seg.name))
	if err != nil {
		return false, err
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		bad(0, "bad segment magic")
		return true, nil
	}
	off := int64(len(segMagic))
	rest := data[off:]
	var values []float64
	for len(rest) > 0 {
		body, n, err := codec.Next(rest, maxRecordBytes)
		if err != nil {
			bad(off, recFlaw(err))
			return true, nil
		}
		if int64(len(body)) < recMinBody {
			bad(off, fmt.Sprintf("record length %d out of range", len(body)))
			return true, nil
		}
		bodyLen := int64(len(body))
		first := binary.BigEndian.Uint64(body[0:8])
		count := int64(binary.BigEndian.Uint32(body[8:12]))
		if count == 0 || recMinBody+8*count != bodyLen {
			bad(off, fmt.Sprintf("record count %d does not match length %d", count, bodyLen))
			return true, nil
		}
		if first > sc.next+1 {
			bad(off, fmt.Sprintf("record starts at arrival %d, next needed is %d", first, sc.next+1))
			return true, nil
		}
		end := first + uint64(count) - 1
		if end > sc.next {
			// Apply the part of the batch beyond what is already
			// recovered (a record can straddle the snapshot boundary).
			skip := sc.next - (first - 1)
			values = values[:0]
			for j := int64(skip); j < count; j++ {
				bits := binary.BigEndian.Uint64(body[recMinBody+8*j:])
				values = append(values, math.Float64frombits(bits))
			}
			if err := apply(sc.next+1, values); err != nil {
				return false, err
			}
			sc.values += uint64(len(values))
			sc.next = end
			sc.records++
		}
		off += int64(n)
		rest = rest[n:]
	}
	return false, nil
}

// recFlaw maps a shared-codec framing error to the recovery reason
// strings this package has always reported.
func recFlaw(err error) string {
	switch {
	case errors.Is(err, codec.ErrTornHeader):
		return "torn record header"
	case errors.Is(err, codec.ErrTornBody):
		return "torn record body"
	case errors.Is(err, codec.ErrChecksum):
		return "record checksum mismatch"
	}
	var le *codec.LengthError
	if errors.As(err, &le) {
		return fmt.Sprintf("record length %d out of range", le.Len)
	}
	return err.Error()
}

// syncDir fsyncs a directory so renames and removals in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	return nil
}
