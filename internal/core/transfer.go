package core

// Chunked, resumable summary transfer: the core half of live summary
// handoff between nodes (see internal/cluster.Rebalance). What moves is
// a bundle — the canonical summary encodings of a set of streams under
// a name index (a single stream is a bundle of one). A transfer
// snapshots one bundle and serves it in arbitrary-sized chunks; an
// assembly accumulates chunks strictly in order on the receiving side.
//
// The resume token is the assembly's contiguous byte count (Have), and
// the CRC32C of the whole bundle is the resume fence: a transfer may
// only resume into an assembly opened for the same (total, crc) pair.
// If the source re-snapshots and the bytes changed, the CRC changes,
// the fence trips, and the receiver restarts from zero instead of
// splicing two different encodings together. Because the canonical
// encoding is deterministic (AppendSummary), equal CRCs over equal
// lengths mean the byte ranges already applied are identical to the
// ones a fresh transfer would carry, so resuming never re-sends — and
// never needs to re-send — completed chunks.
//
// # Bundle encoding
//
//	"SWBN" | u32 n | n × (u16 nameLen | name | u32 sumLen) |
//	n summaries (AppendSummary encodings), in index order
//
// Names are non-empty and distinct, n is at least one, and the
// summary lengths tile the bytes after the index exactly. The bundle
// carries no checksum of its own: the transfer's CRC covers it whole,
// and each summary is a codec frame that checks itself on decode.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/streamsum/swat/internal/codec"
)

// MaxTransferSize bounds the bundle one transfer carries and one
// assembly will agree to accumulate. A summary's size is proportional
// to the tree geometry (ring + coefficient planes); callers size their
// bundles under this cap, which exists so a hostile or corrupt header
// can't make the receiver pre-commit an unbounded buffer.
const MaxTransferSize = 64 << 20

const (
	bundleMagic = "SWBN"
	// bundleHdr is the magic and the entry count; bundleSlot is one
	// index entry's fixed part (name length and summary length).
	bundleHdr  = len(bundleMagic) + 4
	bundleSlot = 2 + 4
)

var (
	// ErrTransferFence reports a resume attempt whose (total, crc)
	// identity does not match the assembly's — the source snapshot
	// changed and the transfer must restart from offset zero.
	ErrTransferFence = errors.New("core: transfer identity mismatch, restart from zero")
	// ErrTransferGap reports a chunk landing past the contiguous
	// prefix; assemblies accept bytes strictly in order.
	ErrTransferGap = errors.New("core: transfer chunk past contiguous prefix")
)

// SummaryTransfer is an immutable snapshot of one bundle, ready to
// serve in chunks. Safe for concurrent use.
type SummaryTransfer struct {
	data []byte
	crc  uint32
}

// BundleEntry is one stream's slot in a bundle.
type BundleEntry struct {
	Name string
	// Summary is the stream's canonical encoding (DecodeSummary
	// input); it aliases the bundle.
	Summary []byte
}

// NewBundleTransfer snapshots the named trees' summaries, names[i]
// being trees[i]'s, as one bundle. Each tree is encoded under its own
// read lock; the set is not one atomic cut across trees. Names must be
// non-empty, at most 65535 bytes and distinct, and the bundle must fit
// MaxTransferSize.
func NewBundleTransfer(names []string, trees []*Tree) (*SummaryTransfer, error) {
	if len(names) != len(trees) {
		return nil, fmt.Errorf("core: bundle of %d names and %d trees", len(names), len(trees))
	}
	return newBundle(names, func(dst []byte, i int) []byte { return trees[i].AppendSummary(dst) })
}

// newBundle encodes a bundle whose i-th summary appendSum appends.
func newBundle(names []string, appendSum func(dst []byte, i int) []byte) (*SummaryTransfer, error) {
	if len(names) == 0 {
		return nil, errors.New("core: empty bundle")
	}
	seen := make(map[string]struct{}, len(names))
	size := bundleHdr
	for _, name := range names {
		if len(name) == 0 || len(name) > 0xFFFF {
			return nil, fmt.Errorf("core: bundle name of %d bytes", len(name))
		}
		if _, dup := seen[name]; dup {
			return nil, fmt.Errorf("core: bundle names %q twice", name)
		}
		seen[name] = struct{}{}
		size += bundleSlot + len(name)
	}
	if size > MaxTransferSize {
		return nil, fmt.Errorf("core: bundle index of %d bytes exceeds %d", size, MaxTransferSize)
	}
	data := make([]byte, bundleHdr, size)
	copy(data, bundleMagic)
	binary.BigEndian.PutUint32(data[len(bundleMagic):], uint32(len(names)))
	for _, name := range names {
		data = binary.BigEndian.AppendUint16(data, uint16(len(name)))
		data = append(data, name...)
		data = append(data, 0, 0, 0, 0) // summary length, patched below
	}
	slot := bundleHdr
	for i, name := range names {
		start := len(data)
		data = appendSum(data, i)
		n := len(data) - start
		if len(data) > MaxTransferSize {
			return nil, fmt.Errorf("core: bundle of %d streams exceeds %d bytes", len(names), MaxTransferSize)
		}
		slot += 2 + len(name)
		binary.BigEndian.PutUint32(data[slot:], uint32(n))
		slot += 4
		if i == 0 {
			// Summaries of one fleet share a geometry: size the rest
			// after the first.
			data = slices.Grow(data, (len(names)-1)*n)
		}
	}
	return &SummaryTransfer{data: data, crc: codec.Checksum(data)}, nil
}

// BundleFit returns how many of names, from the front, one bundle of
// summaries of the given geometry carries under MaxTransferSize, sized
// at the geometry's largest summary (MaxSummaryLen). It is at least one
// whenever names is non-empty.
func BundleFit(opts Options, names []string) (int, error) {
	maxSum, err := MaxSummaryLen(opts)
	if err != nil {
		return 0, err
	}
	size := bundleHdr
	for i, name := range names {
		size += bundleSlot + len(name) + maxSum
		if size > MaxTransferSize && i > 0 {
			return i, nil
		}
	}
	return len(names), nil
}

// parseBundle validates a bundle's index and returns its entries in
// index order, each Summary aliasing data. The summaries themselves
// are not decoded. The entry count is checked against the bytes that
// could hold it before anything is allocated, and the allocations are
// a fixed few per bundle, not per entry: the names are substrings of
// one copy of the index, and duplicates are found by sorting.
func parseBundle(data []byte) ([]BundleEntry, error) {
	if len(data) > MaxTransferSize {
		return nil, fmt.Errorf("core: bundle of %d bytes exceeds %d", len(data), MaxTransferSize)
	}
	if len(data) < bundleHdr || string(data[:len(bundleMagic)]) != bundleMagic {
		return nil, errors.New("core: not a summary bundle")
	}
	n := uint64(binary.BigEndian.Uint32(data[len(bundleMagic):]))
	rest := data[bundleHdr:]
	// Every entry costs an index slot, a name byte and a summary byte.
	if n == 0 || n > uint64(len(rest))/(bundleSlot+2) {
		return nil, fmt.Errorf("core: bundle of %d entries in %d bytes", n, len(data))
	}
	// Walk the index first; each entry's name is then cut from one copy
	// of it.
	type slot struct {
		from, to int    // the name's bounds in the index
		size     uint32 // the summary's length
	}
	slots := make([]slot, n)
	off := 0
	for i := range slots {
		if len(rest)-off < 2 {
			return nil, errors.New("core: bundle index truncated")
		}
		l := int(binary.BigEndian.Uint16(rest[off:]))
		if l == 0 {
			return nil, errors.New("core: bundle entry with an empty name")
		}
		if len(rest)-off < bundleSlot+l {
			return nil, errors.New("core: bundle index truncated")
		}
		slots[i] = slot{off + 2, off + 2 + l, binary.BigEndian.Uint32(rest[off+2+l:])}
		off += bundleSlot + l
	}
	index := string(rest[:off])
	entries := make([]BundleEntry, n)
	for i, sl := range slots {
		entries[i].Name = index[sl.from:sl.to]
	}
	if dup := firstDuplicate(entries); dup >= 0 {
		return nil, fmt.Errorf("core: bundle names %q twice", entries[dup].Name)
	}
	rest = rest[off:]
	for i := range entries {
		l := uint64(slots[i].size)
		if l == 0 || l > uint64(len(rest)) {
			return nil, fmt.Errorf("core: bundle entry %q of %d bytes overruns the bundle", entries[i].Name, l)
		}
		entries[i].Summary = rest[:l:l]
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: %d bytes trail the bundle's summaries", len(rest))
	}
	return entries, nil
}

// firstDuplicate returns the lowest index whose entry repeats an
// earlier entry's name, or -1 when the names are distinct. It sorts the
// entry indices by name, then by index, so each repeat sits right after
// the earlier entry it repeats.
func firstDuplicate(entries []BundleEntry) int {
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := strings.Compare(entries[a].Name, entries[b].Name); c != 0 {
			return c
		}
		return a - b
	})
	dup := -1
	for k := 1; k < len(order); k++ {
		if i := order[k]; entries[i].Name == entries[order[k-1]].Name && (dup < 0 || i < dup) {
			dup = i
		}
	}
	return dup
}

// Entries validates the bundle's index and returns its entries in
// index order; each Summary aliases the snapshot.
func (tr *SummaryTransfer) Entries() ([]BundleEntry, error) { return parseBundle(tr.data) }

// Len returns the total encoded size in bytes.
func (tr *SummaryTransfer) Len() int64 { return int64(len(tr.data)) }

// CRC returns the CRC32C of the whole encoding — the transfer's
// identity for resume fencing.
func (tr *SummaryTransfer) CRC() uint32 { return tr.crc }

// Chunk returns the bytes at [off, off+max), clipped to the encoding's
// end. The slice aliases the snapshot; callers must not modify it. An
// offset at or past the end returns an empty chunk; a negative offset
// or non-positive max is an error.
func (tr *SummaryTransfer) Chunk(off int64, max int) ([]byte, error) {
	if off < 0 || max <= 0 {
		return nil, fmt.Errorf("core: transfer chunk request off=%d max=%d", off, max)
	}
	if off >= int64(len(tr.data)) {
		return nil, nil
	}
	end := off + int64(max)
	if end > int64(len(tr.data)) {
		end = int64(len(tr.data))
	}
	return tr.data[off:end], nil
}

// SummaryAssembly accumulates one transfer's chunks on the receiving
// side. Not safe for concurrent use; the owner serializes access.
type SummaryAssembly struct {
	buf   []byte
	total int64
	crc   uint32
}

// NewSummaryAssembly opens an assembly for a transfer of the given
// identity. The total is validated against MaxTransferSize before any
// allocation, and the buffer grows with the contiguous prefix rather
// than pre-committing the declared size, so hostile headers cost
// nothing.
func NewSummaryAssembly(total int64, crc uint32) (*SummaryAssembly, error) {
	if total <= 0 || total > MaxTransferSize {
		return nil, fmt.Errorf("core: transfer size %d out of range (0, %d]", total, MaxTransferSize)
	}
	return &SummaryAssembly{total: total, crc: crc}, nil
}

// Total returns the declared encoding size.
func (a *SummaryAssembly) Total() int64 { return a.total }

// CRC returns the declared whole-encoding CRC32C.
func (a *SummaryAssembly) CRC() uint32 { return a.crc }

// Have returns the contiguous byte count received so far — the resume
// token a source consults to avoid re-sending completed chunks.
func (a *SummaryAssembly) Have() int64 { return int64(len(a.buf)) }

// Matches reports whether the assembly was opened for a transfer of
// the given identity.
func (a *SummaryAssembly) Matches(total int64, crc uint32) bool {
	return a.total == total && a.crc == crc
}

// Append lands one chunk at the given offset. Chunks must extend the
// contiguous prefix: an offset past Have is ErrTransferGap. Chunks
// that lie entirely within the prefix are idempotent no-ops (a retry
// of an already-applied write), and a chunk straddling the prefix
// boundary applies only its new suffix, so duplicated deliveries
// cannot corrupt the buffer. Overflow past the declared total is an
// error.
func (a *SummaryAssembly) Append(off int64, chunk []byte) error {
	if off < 0 {
		return fmt.Errorf("core: transfer append at negative offset %d", off)
	}
	have := int64(len(a.buf))
	if off > have {
		return ErrTransferGap
	}
	end := off + int64(len(chunk))
	if end > a.total {
		return fmt.Errorf("core: transfer append to %d overflows declared size %d", end, a.total)
	}
	if end <= have {
		return nil // fully duplicated delivery
	}
	a.buf = append(a.buf, chunk[have-off:]...)
	return nil
}

// Complete returns true once every declared byte has arrived.
func (a *SummaryAssembly) Complete() bool { return int64(len(a.buf)) == a.total }

// Transfer converts a completed assembly into a servable transfer for
// the next hop — the relay step of driver-mediated handoff, where the
// migration driver pulls from the old owner and pushes to the new one.
// The bytes are verified against the declared CRC first, so a driver
// never forwards a corrupted encoding.
func (a *SummaryAssembly) Transfer() (*SummaryTransfer, error) {
	if !a.Complete() {
		return nil, fmt.Errorf("core: transfer incomplete: %d of %d bytes", len(a.buf), a.total)
	}
	if got := codec.Checksum(a.buf); got != a.crc {
		return nil, fmt.Errorf("core: transfer checksum mismatch: got %#x want %#x", got, a.crc)
	}
	return &SummaryTransfer{data: a.buf, crc: a.crc}, nil
}

// ResetToSummary replaces the tree's state with the state a summary
// describes, in place: the Tree pointer stays valid, so caches holding
// it (a wire server's stream handles) observe the new state without
// re-resolution. This is the install step of summary handoff — the new
// owner adopts the migrated stream's exact history. The summary is
// validated first; on error the tree is untouched. When the tree
// already has the summary's geometry its state is overwritten where it
// lies, which allocates nothing; otherwise a state of the new geometry
// is built. Either way the generation advances, so compiled plans
// recompile, and the tree keeps no reference to s.
//
//swat:noalloc
func (t *Tree) ResetToSummary(s *Summary) error {
	if err := s.Validate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n != s.WindowSize || t.k != s.Coefficients || t.minLevel != s.MinLevel {
		st, err := newState(s.options())
		if err != nil {
			// Unreachable: Validate checked the geometry.
			return err
		}
		st.generation = t.generation
		t.treeState = *st
	}
	t.load(s)
	t.generation++
	return nil
}
