package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/stream"
)

// Tests for chunked, resumable summary transfer: the byte-level half
// of live summary handoff. The properties pinned here are the ones the
// migration driver leans on — cuts at every byte offset resume without
// re-sending or corrupting anything, the CRC fence refuses cross-
// snapshot splices, and an installed tree is byte-identical to its
// source.

// transferTree builds a warm tree whose summary spans several chunks at
// small chunk sizes.
func transferTree(t testing.TB) *Tree {
	t.Helper()
	return feedTree(t, Options{WindowSize: 128, Coefficients: 8}, stream.Uniform(11), 300)
}

// bundleOf snapshots the trees as one bundle, named s0, s1, ...
func bundleOf(t testing.TB, trees ...*Tree) *SummaryTransfer {
	t.Helper()
	names := make([]string, len(trees))
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	xfer, err := NewBundleTransfer(names, trees)
	if err != nil {
		t.Fatal(err)
	}
	return xfer
}

// rawTransfer serves arbitrary bytes, for tests of the assembly's
// byte discipline that need no bundle structure.
func rawTransfer(data []byte) *SummaryTransfer {
	return &SummaryTransfer{data: data, crc: codec.Checksum(data)}
}

// decodeOne verifies an assembly holding a bundle of one and decodes
// its summary.
func decodeOne(asm *SummaryAssembly) (*Summary, error) {
	xfer, err := asm.Transfer()
	if err != nil {
		return nil, err
	}
	entries, err := xfer.Entries()
	if err != nil {
		return nil, err
	}
	if len(entries) != 1 {
		return nil, fmt.Errorf("bundle of %d entries, want 1", len(entries))
	}
	return DecodeSummary(entries[0].Summary)
}

// TestTransferRoundTrip moves a bundle of one in every chunk size from
// 1 byte to past the whole encoding and installs it; the installed
// tree's canonical encoding must equal the source's exactly.
func TestTransferRoundTrip(t *testing.T) {
	tr := transferTree(t)
	xfer := bundleOf(t, tr)
	want := tr.AppendSummary(nil)
	if index := int64(bundleHdr + bundleSlot + len("s0")); xfer.Len() != index+int64(len(want)) {
		t.Fatalf("transfer length %d, index %d + encoding %d", xfer.Len(), index, len(want))
	}
	for _, chunk := range []int{1, 7, 64, int(xfer.Len()), int(xfer.Len()) + 100} {
		asm, err := NewSummaryAssembly(xfer.Len(), xfer.CRC())
		if err != nil {
			t.Fatal(err)
		}
		for !asm.Complete() {
			data, err := xfer.Chunk(asm.Have(), chunk)
			if err != nil {
				t.Fatal(err)
			}
			if err := asm.Append(asm.Have(), data); err != nil {
				t.Fatal(err)
			}
		}
		sum, err := decodeOne(asm)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		dst, err := New(Options{WindowSize: 128, Coefficients: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.ResetToSummary(sum); err != nil {
			t.Fatal(err)
		}
		if got := dst.AppendSummary(nil); !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: installed tree's encoding differs from the source's", chunk)
		}
		if dst.Arrivals() != tr.Arrivals() {
			t.Fatalf("chunk %d: installed arrivals %d, want %d", chunk, dst.Arrivals(), tr.Arrivals())
		}
	}
}

// TestTransferResumeAtEveryOffset cuts the transfer after every
// possible contiguous prefix and resumes it into the same assembly:
// the resume must start exactly at Have (no byte re-sent), and the
// result must decode identically.
func TestTransferResumeAtEveryOffset(t *testing.T) {
	tr := transferTree(t)
	xfer := bundleOf(t, tr)
	n := xfer.Len()
	// Step through cut points (every offset would be O(n²) over a
	// multi-KB encoding; a stride plus the edges covers the boundary
	// arithmetic).
	cuts := []int64{0, 1, 2, n / 2, n - 2, n - 1, n}
	for off := int64(3); off < n; off += 97 {
		cuts = append(cuts, off)
	}
	for _, cut := range cuts {
		asm, err := NewSummaryAssembly(n, xfer.CRC())
		if err != nil {
			t.Fatal(err)
		}
		// First leg: deliver exactly `cut` bytes, then "lose" the
		// connection.
		for asm.Have() < cut {
			data, err := xfer.Chunk(asm.Have(), int(cut-asm.Have()))
			if err != nil {
				t.Fatal(err)
			}
			if err := asm.Append(asm.Have(), data); err != nil {
				t.Fatal(err)
			}
		}
		if asm.Have() != cut {
			t.Fatalf("cut %d: prefix %d", cut, asm.Have())
		}
		// Resume leg: continue from the resume token.
		for !asm.Complete() {
			data, err := xfer.Chunk(asm.Have(), 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := asm.Append(asm.Have(), data); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := decodeOne(asm); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}
}

// TestTransferAppendDiscipline pins the assembly's ordering rules:
// gaps refuse, duplicates are no-ops, straddles apply only the new
// suffix, overflow past the declared total refuses.
func TestTransferAppendDiscipline(t *testing.T) {
	payload := []byte("0123456789abcdef")
	xfer := rawTransfer(payload)
	asm, err := NewSummaryAssembly(xfer.Len(), xfer.CRC())
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.Append(4, payload[4:8]); !errors.Is(err, ErrTransferGap) {
		t.Fatalf("gap append: %v, want ErrTransferGap", err)
	}
	if err := asm.Append(0, payload[:8]); err != nil {
		t.Fatal(err)
	}
	// Fully duplicated delivery: a no-op.
	if err := asm.Append(0, payload[:4]); err != nil || asm.Have() != 8 {
		t.Fatalf("duplicate append: err=%v have=%d", err, asm.Have())
	}
	// Straddling delivery: only the suffix past Have applies.
	if err := asm.Append(4, payload[4:12]); err != nil || asm.Have() != 12 {
		t.Fatalf("straddling append: err=%v have=%d", err, asm.Have())
	}
	// Overflow past the declared total.
	if err := asm.Append(12, append([]byte(nil), payload[12:]...)); err != nil {
		t.Fatal(err)
	}
	if err := asm.Append(16, []byte("x")); err == nil {
		t.Fatal("overflow append accepted")
	}
	sum := asm.Have()
	if sum != 16 || !asm.Complete() {
		t.Fatalf("have=%d complete=%v", sum, asm.Complete())
	}
	// A duplicated byte stream must have produced the original bytes.
	reborn, err := asm.Transfer()
	if err != nil {
		t.Fatal(err)
	}
	got, err := reborn.Chunk(0, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("reassembled bytes differ: %q err=%v", got, err)
	}
}

// TestTransferHostileHeaders pins the cheap refusal of bad identities:
// out-of-range totals never allocate an assembly, corrupt bytes never
// survive the CRC, and incomplete assemblies refuse to decode.
func TestTransferHostileHeaders(t *testing.T) {
	for _, total := range []int64{0, -1, MaxTransferSize + 1} {
		if _, err := NewSummaryAssembly(total, 0); err == nil {
			t.Errorf("total %d accepted", total)
		}
	}
	payload := []byte("0123456789abcdef")
	xfer := rawTransfer(payload)
	if !(&SummaryAssembly{total: xfer.Len(), crc: xfer.CRC()}).Matches(xfer.Len(), xfer.CRC()) {
		t.Fatal("matching identity refused")
	}
	asm, err := NewSummaryAssembly(xfer.Len(), xfer.CRC())
	if err != nil {
		t.Fatal(err)
	}
	if asm.Matches(xfer.Len(), xfer.CRC()+1) || asm.Matches(xfer.Len()+1, xfer.CRC()) {
		t.Fatal("mismatched identity accepted")
	}
	if _, err := decodeOne(asm); err == nil {
		t.Fatal("incomplete assembly decoded")
	}
	if _, err := asm.Transfer(); err == nil {
		t.Fatal("incomplete assembly converted to a transfer")
	}
	// Corrupt one byte relative to the declared CRC: completion is
	// reached but both decode paths must refuse.
	bad := append([]byte(nil), payload...)
	bad[3] ^= 0x40
	if err := asm.Append(0, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeOne(asm); err == nil {
		t.Fatal("corrupt assembly decoded")
	}
	if _, err := asm.Transfer(); err == nil {
		t.Fatal("corrupt assembly converted to a transfer")
	}
	// Chunk request validation.
	if _, err := xfer.Chunk(-1, 4); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := xfer.Chunk(0, 0); err == nil {
		t.Fatal("non-positive max accepted")
	}
	if data, err := xfer.Chunk(xfer.Len(), 4); err != nil || len(data) != 0 {
		t.Fatalf("past-end chunk: %q err=%v, want empty", data, err)
	}
}

// TestResetToSummaryKeepsTreePointer pins the install-in-place
// property the wire server's stream-handle caches rely on: the Tree
// pointer answers from the new state without re-resolution.
func TestResetToSummaryKeepsTreePointer(t *testing.T) {
	src := transferTree(t)
	sum := src.Export()
	dst, err := New(Options{WindowSize: 128, Coefficients: 8})
	if err != nil {
		t.Fatal(err)
	}
	dst.Update(1)
	alias := dst // the cached pointer a server would hold
	if err := dst.ResetToSummary(sum); err != nil {
		t.Fatal(err)
	}
	if alias.Arrivals() != src.Arrivals() {
		t.Fatalf("aliased tree sees %d arrivals, want %d", alias.Arrivals(), src.Arrivals())
	}
	wantV, wantB, err := src.BoundedPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	gotV, gotB, err := alias.BoundedPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if gotV != wantV || gotB != wantB {
		t.Fatalf("aliased tree answers (%v ± %v), want (%v ± %v)", gotV, gotB, wantV, wantB)
	}
}

// TestBundleRoundTrip moves three streams as one bundle: the index
// names them in order, each entry is exactly its tree's canonical
// encoding, and every entry installs to a byte-identical tree.
func TestBundleRoundTrip(t *testing.T) {
	opts := Options{WindowSize: 64, Coefficients: 4}
	trees := []*Tree{
		feedTree(t, opts, stream.Uniform(1), 100),
		feedTree(t, opts, stream.Uniform(2), 70),
		feedTree(t, opts, stream.Uniform(3), 5),
	}
	xfer := bundleOf(t, trees...)
	asm, err := NewSummaryAssembly(xfer.Len(), xfer.CRC())
	if err != nil {
		t.Fatal(err)
	}
	for !asm.Complete() {
		data, err := xfer.Chunk(asm.Have(), 50)
		if err != nil {
			t.Fatal(err)
		}
		if err := asm.Append(asm.Have(), data); err != nil {
			t.Fatal(err)
		}
	}
	relay, err := asm.Transfer()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := relay.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(trees) {
		t.Fatalf("%d entries, want %d", len(entries), len(trees))
	}
	for i, e := range entries {
		want := trees[i].AppendSummary(nil)
		if e.Name != fmt.Sprintf("s%d", i) || !bytes.Equal(e.Summary, want) {
			t.Fatalf("entry %d: %q, %d bytes; want s%d, the tree's %d-byte encoding", i, e.Name, len(e.Summary), i, len(want))
		}
		sum, err := DecodeSummary(e.Summary)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := FromSummary(sum)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst.AppendSummary(nil), want) {
			t.Fatalf("entry %d installed to a different tree", i)
		}
	}
}

// TestBundleRefusals pins the encoder's refusals: no bundle of nothing,
// of empty or repeated names, or of mismatched names and trees.
func TestBundleRefusals(t *testing.T) {
	tr := transferTree(t)
	for _, names := range [][]string{nil, {""}, {"a", "a"}, {strings.Repeat("x", 0x10000)}} {
		trees := make([]*Tree, len(names))
		for i := range trees {
			trees[i] = tr
		}
		if _, err := NewBundleTransfer(names, trees); err == nil {
			t.Errorf("bundle of %d names %.8q accepted", len(names), names)
		}
	}
	if _, err := NewBundleTransfer([]string{"a", "b"}, []*Tree{tr}); err == nil {
		t.Error("two names for one tree accepted")
	}
}

// hostileBundle encodes an index by hand: names[i] with declared
// summary length lens[i], then body verbatim.
func hostileBundle(n uint32, names []string, lens []uint32, body []byte) []byte {
	b := append([]byte(bundleMagic), 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b[len(bundleMagic):], n)
	for i, name := range names {
		b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
		b = append(b, name...)
		b = binary.BigEndian.AppendUint32(b, lens[i])
	}
	return append(b, body...)
}

// FuzzDecodeBundle hardens the bundle decoder against hostile indexes:
// overlapping or overflowing lengths, duplicate or empty names, zero
// entries, counts the bytes cannot hold, and bodies that are not
// summaries must all return an error — never panic or allocate beyond
// the input's size. Whatever parses must re-encode to the identical
// bytes.
func FuzzDecodeBundle(f *testing.F) {
	opts := Options{WindowSize: 16, Coefficients: 2}
	a := feedTree(f, opts, stream.Uniform(5), 20)
	b := feedTree(f, opts, stream.Uniform(6), 3)
	good, err := NewBundleTransfer([]string{"alpha", "b"}, []*Tree{a, b})
	if err != nil {
		f.Fatal(err)
	}
	sa, sb := a.AppendSummary(nil), b.AppendSummary(nil)
	body := append(append([]byte(nil), sa...), sb...)
	la, lb := uint32(len(sa)), uint32(len(sb))
	f.Add(good.data)
	f.Add(bundleOf(f, a).data)
	f.Add(hostileBundle(0, nil, nil, nil))                                              // zero entries
	f.Add(hostileBundle(0xFFFFFFFF, []string{"a"}, []uint32{la}, sa))                   // count past the bytes
	f.Add(hostileBundle(2, []string{"a", "a"}, []uint32{la, lb}, body))                 // duplicate names
	f.Add(hostileBundle(2, []string{"a", ""}, []uint32{la, lb}, body))                  // empty name
	f.Add(hostileBundle(2, []string{"a", "b"}, []uint32{la + lb, lb}, body))            // overlapping lengths
	f.Add(hostileBundle(2, []string{"a", "b"}, []uint32{0xFFFFFFFF, 0xFFFFFFFF}, body)) // overflowing lengths
	f.Add(hostileBundle(2, []string{"a", "b"}, []uint32{la, 0}, body))                  // empty summary
	f.Add(hostileBundle(1, []string{"a"}, []uint32{MaxTransferSize + 1}, sa))           // total above the cap
	f.Add(hostileBundle(2, []string{"a", "b"}, []uint32{lb, la}, body))                 // lengths tile, summaries torn
	f.Add(hostileBundle(1, []string{"a"}, []uint32{la - 1}, sa))                        // trailing bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := parseBundle(data)
		if err != nil {
			return
		}
		if len(entries) == 0 || len(entries) > len(data)/(bundleSlot+2) {
			t.Fatalf("parsed %d entries from %d bytes", len(entries), len(data))
		}
		names := make([]string, len(entries))
		for i, e := range entries {
			if e.Name == "" || len(e.Summary) == 0 {
				t.Fatalf("accepted entry %d: %q, %d bytes", i, e.Name, len(e.Summary))
			}
			names[i] = e.Name
			DecodeSummary(e.Summary) // must not panic; an error is fine
		}
		re, err := newBundle(names, func(dst []byte, i int) []byte { return append(dst, entries[i].Summary...) })
		if err != nil {
			t.Fatalf("parsed bundle does not re-encode: %v", err)
		}
		if !bytes.Equal(re.data, data) {
			t.Fatal("parsed bundle re-encodes differently")
		}
	})
}
