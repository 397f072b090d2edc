package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/multi"
)

// Socket tests for the live-resharding wire layer: the epoch
// adopt-forward/refuse-stale rules and the chunked, resumable summary
// handoff frames. The cluster package tests the whole Rebalance driver;
// here each protocol obligation is pinned in isolation.

// feedWarm pushes count values into one stream over the socket and
// waits for them to apply.
func feedWarm(t *testing.T, addr string, mon *multi.Monitor, name string, count int) {
	t.Helper()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vals := make([]float64, count)
	for i := range vals {
		vals[i] = float64(i%37) * 0.5
	}
	if err := c.FeedStream(name, vals); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitStreamArrivals(t, mon, name, int64(count))
}

// TestEpochControlFrame pins the control plane: a fresh server is
// unversioned, set fences forward only, and a newer stamp on any
// stream frame is adopted.
func TestEpochControlFrame(t *testing.T) {
	addr, mon, shutdown := startStreamServer(t, multi.Options{WindowSize: 32})
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if e, err := c.RingEpoch(); err != nil || e != 0 {
		t.Fatalf("fresh server epoch = %d, %v; want 0", e, err)
	}
	if e, err := c.SetRingEpoch(5); err != nil || e != 5 {
		t.Fatalf("SetRingEpoch(5) = %d, %v; want 5", e, err)
	}
	if e, err := c.SetRingEpoch(3); err != nil || e != 5 {
		t.Fatalf("SetRingEpoch(3) after 5 = %d, %v; epochs must never lower", e, err)
	}
	// A newer stamp on a data frame self-heals a missed broadcast.
	c.SetEpoch(8)
	if err := c.FeedStream("alpha", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitStreamArrivals(t, mon, "alpha", 3)
	if e, err := c.RingEpoch(); err != nil || e != 8 {
		t.Fatalf("epoch after newer-stamped data = %d, %v; want adopted 8", e, err)
	}
}

// TestEpochStaleRefusal pins the refusal side: once the server's epoch
// moved on, stale-stamped queries get soft error frames, stale-stamped
// data kills the connection without applying a value (never
// double-counted), and unversioned frames still pass.
func TestEpochStaleRefusal(t *testing.T) {
	addr, mon, shutdown := startStreamServer(t, multi.Options{WindowSize: 32})
	defer shutdown()
	feedWarm(t, addr, mon, "alpha", 64)

	ctl, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if _, err := ctl.SetRingEpoch(7); err != nil {
		t.Fatal(err)
	}

	stale, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	stale.SetEpoch(3)
	var remote *RemoteError
	if _, _, _, err := stale.StreamPoint("alpha", 0); !errors.As(err, &remote) {
		t.Fatalf("stale query: %v, want remote refusal", err)
	}
	if _, err := stale.FetchStreamSummary("alpha"); !errors.As(err, &remote) {
		t.Fatalf("stale summary fetch: %v, want remote refusal", err)
	}
	tr, err := mon.Tree("alpha")
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Arrivals()
	if err := stale.FeedStream("alpha", []float64{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	stale.Flush()
	// The refusal is fatal to the connection: the next round trip
	// cannot succeed, and no stale value may have been applied.
	stale.SetDeadline(time.Now().Add(2 * time.Second))
	if _, _, _, err := stale.StreamPoint("alpha", 0); err == nil {
		t.Fatal("connection survived stale-stamped data")
	}
	time.Sleep(20 * time.Millisecond)
	if got := tr.Arrivals(); got != before {
		t.Fatalf("stale data applied: arrivals %d -> %d", before, got)
	}
	st, err := ctl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 7 || st.EpochRefusals < 3 {
		t.Fatalf("stats epoch=%d refusals=%d, want epoch 7 and >=3 refusals", st.Epoch, st.EpochRefusals)
	}
	// Unversioned frames still flow: mixed fleets predating epochs keep
	// working.
	legacy, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if _, _, _, err := legacy.StreamPoint("alpha", 0); err != nil {
		t.Fatalf("unversioned query refused: %v", err)
	}
}

// TestMigExportResume pins the export side: chunks carry the snapshot
// identity, a reconnecting reader resumes at its offset under a
// matching CRC without a single re-sent byte, and a stale CRC restarts
// the reply at offset zero instead of splicing snapshots.
func TestMigExportResume(t *testing.T) {
	addr, mon, shutdown := startStreamServer(t, multi.Options{WindowSize: 64, Coefficients: 4})
	defer shutdown()
	feedWarm(t, addr, mon, "alpha", 200)
	tr, err := mon.Tree("alpha")
	if err != nil {
		t.Fatal(err)
	}
	want := bundleBytes(t, []string{"alpha"}, tr)

	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.MigRead("alpha", 0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if first.Offset != 0 || first.Total != int64(len(want)) {
		t.Fatalf("first chunk offset=%d total=%d, want 0/%d", first.Offset, first.Total, len(want))
	}
	asm, err := core.NewSummaryAssembly(first.Total, first.CRC)
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.Append(first.Offset, first.Data); err != nil {
		t.Fatal(err)
	}
	// Cut the connection mid-transfer; resume on a fresh one.
	c.Close()
	c, err = DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for !asm.Complete() {
		ch, err := c.MigRead("alpha", asm.Have(), asm.CRC(), 64)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Offset != asm.Have() {
			t.Fatalf("resume re-sent bytes: asked %d, got offset %d", asm.Have(), ch.Offset)
		}
		if err := asm.Append(ch.Offset, ch.Data); err != nil {
			t.Fatal(err)
		}
	}
	xfer, err := asm.Transfer()
	if err != nil {
		t.Fatal(err)
	}
	got, err := xfer.Chunk(0, int(xfer.Len()))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("assembled export differs from the tree's bundle of one (err=%v)", err)
	}
	// A resume under the wrong CRC must restart at zero with the real
	// identity, not serve bytes from a snapshot the reader doesn't have.
	ch, err := c.MigRead("alpha", 10, asm.CRC()+1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Offset != 0 || ch.CRC != asm.CRC() {
		t.Fatalf("wrong-CRC resume served offset %d crc %#x, want restart at 0 with %#x", ch.Offset, ch.CRC, asm.CRC())
	}
	var remote *RemoteError
	if _, err := c.MigRead("ghost", 0, 0, 64); !errors.As(err, &remote) {
		t.Fatalf("export of unknown stream: %v, want remote refusal", err)
	}
}

// TestMigInstallResumeAndCommit drives the import side across a
// reconnect: probe-then-write never re-sends applied bytes, gaps
// answer with the resume token instead of failing, the commit installs
// the exact source state, and commits are idempotent while refusing
// both unknown identities and stale target epochs.
func TestMigInstallResumeAndCommit(t *testing.T) {
	srcAddr, srcMon, srcDown := startStreamServer(t, multi.Options{WindowSize: 64, Coefficients: 4})
	defer srcDown()
	dstAddr, dstMon, dstDown := startStreamServer(t, multi.Options{WindowSize: 64, Coefficients: 4})
	defer dstDown()
	feedWarm(t, srcAddr, srcMon, "alpha", 200)
	srcTree, err := srcMon.Tree("alpha")
	if err != nil {
		t.Fatal(err)
	}
	xfer, err := core.NewBundleTransfer([]string{"alpha"}, []*core.Tree{srcTree})
	if err != nil {
		t.Fatal(err)
	}
	total, crc := xfer.Len(), xfer.CRC()

	c, err := DialBinary(dstAddr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.MigWrite("alpha", 0, total, crc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Have != 0 || st.Committed {
		t.Fatalf("fresh probe: %+v", st)
	}
	chunk := func(off int64) []byte {
		data, err := xfer.Chunk(off, 64)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if st, err = c.MigWrite("alpha", 0, total, crc, chunk(0)); err != nil || st.Have != min64(64, total) {
		t.Fatalf("first write: %+v, %v", st, err)
	}
	// A gap lands nothing and reports the resume token.
	if st, err = c.MigWrite("alpha", st.Have+32, total, crc, chunk(0)); err != nil {
		t.Fatal(err)
	}
	if st.Have != min64(64, total) {
		t.Fatalf("gap write advanced the prefix: %+v", st)
	}
	// Cut; the assembly must survive on the server across reconnects.
	c.Close()
	if c, err = DialBinary(dstAddr); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st, err = c.MigStat("alpha"); err != nil || !st.Matches(total, crc) || st.Have != min64(64, total) {
		t.Fatalf("post-reconnect stat: %+v, %v", st, err)
	}
	for st.Have < total {
		prev := st.Have
		if st, err = c.MigWrite("alpha", prev, total, crc, chunk(prev)); err != nil {
			t.Fatal(err)
		}
		if st.Have <= prev {
			t.Fatalf("write at %d did not advance (%+v)", prev, st)
		}
	}
	// Commit with a target epoch the server has not passed.
	if st, err = c.MigCommit("alpha", total, crc, 4); err != nil || !st.Committed {
		t.Fatalf("commit: %+v, %v", st, err)
	}
	dstTree, err := dstMon.Tree("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dstTree.AppendSummary(nil), srcTree.AppendSummary(nil); !bytes.Equal(got, want) {
		t.Fatal("installed stream state differs from the source's canonical encoding")
	}
	// Idempotent re-commit and re-write under the same identity.
	if st, err = c.MigCommit("alpha", total, crc, 4); err != nil || !st.Committed {
		t.Fatalf("duplicate commit: %+v, %v", st, err)
	}
	if st, err = c.MigWrite("alpha", 0, total, crc, chunk(0)); err != nil || !st.Committed || st.Have != total {
		t.Fatalf("post-commit write: %+v, %v", st, err)
	}
	// Commit of an identity nothing was transferred for.
	var remote *RemoteError
	if _, err := c.MigCommit("beta", 10, 99, 4); !errors.As(err, &remote) {
		t.Fatalf("commit without transfer: %v, want remote refusal", err)
	}
	// A server past the migration's target epoch refuses the commit: a
	// stalled driver's late install must not clobber post-cutover state.
	if _, err := c.SetRingEpoch(9); err != nil {
		t.Fatal(err)
	}
	if st, err = c.MigWrite("gamma", 0, total, crc, nil); err != nil {
		t.Fatal(err)
	}
	for st.Have < total {
		if st, err = c.MigWrite("gamma", st.Have, total, crc, chunk(st.Have)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.MigCommit("gamma", total, crc, 4); !errors.As(err, &remote) {
		t.Fatalf("stale-epoch commit: %v, want remote refusal", err)
	}
}

// bundleBytes encodes the named trees as the bundle a migRead of names
// exports.
func bundleBytes(t *testing.T, names []string, trees ...*core.Tree) []byte {
	t.Helper()
	xfer, err := core.NewBundleTransfer(names, trees)
	if err != nil {
		t.Fatal(err)
	}
	data, err := xfer.Chunk(0, int(xfer.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMigExportSet pins the set export: one migRead names several
// streams and the chunks carry exactly their bundle; a set naming an
// unknown stream, or one stream twice, is refused whole with the
// connection intact; and a different set on the same connection is a
// fresh snapshot, never the cached one.
func TestMigExportSet(t *testing.T) {
	addr, mon, shutdown := startStreamServer(t, multi.Options{WindowSize: 64, Coefficients: 4})
	defer shutdown()
	names := []string{"beta", "alpha", "gamma"}
	var trees []*core.Tree
	for i, name := range names {
		feedWarm(t, addr, mon, name, 50+30*i)
		tr, err := mon.Tree(name)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	read := func(names []string) []byte {
		t.Helper()
		var asm *core.SummaryAssembly
		for asm == nil || !asm.Complete() {
			var off int64
			var crc uint32
			if asm != nil {
				off, crc = asm.Have(), asm.CRC()
			}
			ch, err := c.MigReadSet(names, off, crc, 100)
			if err != nil {
				t.Fatal(err)
			}
			if asm == nil {
				if asm, err = core.NewSummaryAssembly(ch.Total, ch.CRC); err != nil {
					t.Fatal(err)
				}
			}
			if err := asm.Append(ch.Offset, ch.Data); err != nil {
				t.Fatal(err)
			}
		}
		xfer, err := asm.Transfer()
		if err != nil {
			t.Fatal(err)
		}
		data, err := xfer.Chunk(0, int(xfer.Len()))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if got := read(names); !bytes.Equal(got, bundleBytes(t, names, trees...)) {
		t.Fatal("set export differs from the set's bundle")
	}
	if got := read(names[1:]); !bytes.Equal(got, bundleBytes(t, names[1:], trees[1:]...)) {
		t.Fatal("a second set on the connection was served from the first one's snapshot")
	}
	var remote *RemoteError
	for _, bad := range [][]string{{"alpha", "ghost"}, {"alpha", "alpha"}} {
		if _, err := c.MigReadSet(bad, 0, 0, 64); !errors.As(err, &remote) {
			t.Fatalf("export of %q: %v, want remote refusal", bad, err)
		}
	}
	if _, err := c.Ping(); err != nil {
		t.Fatalf("connection did not survive the refusals: %v", err)
	}
	if _, err := c.MigReadSet(nil, 0, 0, 64); err == nil {
		t.Fatal("empty set accepted")
	}
}

// TestMigReadFit pins the split point of long name sets: MigReadFit
// counts the names whose frame stays under MaxFrame, and MigReadSet
// refuses a set past it before sending anything.
func TestMigReadFit(t *testing.T) {
	names := make([]string, MaxFrame/(2+maxStreamName)+2)
	for i := range names {
		names[i] = fmt.Sprintf("%0*d", maxStreamName, i)
	}
	k := MigReadFit(names)
	if k == 0 || k >= len(names) {
		t.Fatalf("MigReadFit = %d of %d long names", k, len(names))
	}
	if n := len(appendMigReadFrame(nil, names[:k], 0, 0, 0)) - codec.HeaderLen; n > MaxFrame {
		t.Fatalf("%d names make a %d-byte frame, beyond MaxFrame", k, n)
	}
	if n := len(appendMigReadFrame(nil, names[:k+1], 0, 0, 0)) - codec.HeaderLen; n <= MaxFrame {
		t.Fatalf("%d names still fit one frame (%d bytes), MigReadFit said %d", k+1, n, k)
	}
	var c BinClient
	if _, err := c.MigReadSet(names, 0, 0, 0); err == nil {
		t.Fatal("MigReadSet accepted a set past MigReadFit")
	}
}

// Matches reports whether a MigState carries the given identity (test
// helper mirroring core.SummaryAssembly.Matches).
func (st MigState) Matches(total int64, crc uint32) bool {
	return st.Total == total && st.CRC == crc
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// FuzzDecodeMigFrame hardens every live-resharding frame decoder
// against hostile headers and truncations: arbitrary bytes must either
// be rejected or decode to values that re-encode to the identical
// frame — and never panic or over-allocate.
func FuzzDecodeMigFrame(f *testing.F) {
	seeds := [][]byte{
		appendEpochFrame(nil, 0, 0),
		appendEpochFrame(nil, 1, 42),
		appendMigReadFrame(nil, []string{"alpha"}, 128, 0xDEAD, 64),
		appendMigReadFrame(nil, []string{"alpha", "b", "alpha"}, 0, 0, 0),
		appendMigChunkFrame(nil, 64, 4096, 0xBEEF, []byte("chunk-bytes")),
		appendMigWriteFrame(nil, "alpha", 0, 4096, 0xBEEF, []byte("payload")),
		appendMigWriteFrame(nil, "alpha", 64, 4096, 0xBEEF, nil),
		appendMigStatFrame(nil, "alpha"),
		appendMigCommitFrame(nil, "alpha", 4096, 0xBEEF, 7),
		appendMigStateFrame(nil, MigState{Have: 12, Total: 4096, CRC: 0xBEEF, Committed: true}),
	}
	for _, s := range seeds {
		f.Add(s)
		// Truncations at every byte: resumability means cut frames are
		// the common case, not the exotic one.
		for i := 0; i < len(s); i++ {
			f.Add(s[:i])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body, buf, err := readBinFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if len(buf) > MaxFrame {
			t.Fatalf("frame buffer grew to %d, beyond MaxFrame", len(buf))
		}
		if len(body) == 0 {
			t.Fatal("readBinFrame accepted an empty body")
		}
		payload := body[1:]
		reencode := func(re []byte) {
			t.Helper()
			rebody, _, rerr := codec.Next(re, MaxFrame)
			if rerr != nil || !bytes.Equal(rebody, body) {
				t.Fatalf("frame did not round-trip (%v)", rerr)
			}
		}
		switch body[0] {
		case bfEpoch:
			if op, e, err := decodeEpochFrame(payload); err == nil {
				reencode(appendEpochFrame(nil, op, e))
			}
		case bfMigRead:
			if n, set, off, crc, max, err := decodeMigReadFrame(payload); err == nil {
				if off < 0 || n == 0 || n > len(set)/3 {
					t.Fatalf("accepted migRead off=%d n=%d in %d bytes", off, n, len(set))
				}
				names := make([]string, n)
				rest := set[4:]
				for i := range names {
					name, r, err := splitStreamName(rest)
					if err != nil {
						t.Fatalf("accepted migRead with a bad name %d: %v", i, err)
					}
					names[i], rest = string(name), r
				}
				reencode(appendMigReadFrame(nil, names, off, crc, max))
			}
		case bfMigChunk:
			if ch, err := decodeMigChunkFrame(payload); err == nil {
				if ch.Offset < 0 || ch.Total < 0 {
					t.Fatalf("accepted negative chunk geometry %+v", ch)
				}
				reencode(appendMigChunkFrame(nil, ch.Offset, ch.Total, ch.CRC, ch.Data))
			}
		case bfMigWrite:
			if name, off, total, crc, data, err := decodeMigWriteFrame(payload); err == nil {
				if off < 0 || total < 0 || len(name) == 0 {
					t.Fatalf("accepted migWrite off=%d total=%d name=%q", off, total, name)
				}
				reencode(appendMigWriteFrame(nil, string(name), off, total, crc, data))
			}
		case bfMigCommit:
			if name, total, crc, epoch, err := decodeMigCommitFrame(payload); err == nil {
				if total < 0 || len(name) == 0 {
					t.Fatalf("accepted migCommit total=%d name=%q", total, name)
				}
				reencode(appendMigCommitFrame(nil, string(name), total, crc, epoch))
			}
		case bfMigStat:
			if name, rest, err := splitStreamName(payload); err == nil && len(rest) == 0 {
				reencode(appendMigStatFrame(nil, string(name)))
			}
		case bfMigState:
			if st, err := decodeMigStateFrame(payload); err == nil {
				if st.Have < 0 || st.Total < 0 {
					t.Fatalf("accepted negative state %+v", st)
				}
				reencode(appendMigStateFrame(nil, st))
			}
		}
	})
}

// TestInstallBundleCostsPerBundle pins what a commit costs the new
// owner: installBundle — the work of a migCommit once the transfer is
// assembled — allocates per bundle, not per entry. A bundle of 8
// summaries into existing streams allocates exactly as often as one of
// 64, because every entry decodes into one scratch Summary and is
// copied into its stream's tree in place. Each install is checked to
// have landed byte for byte.
func TestInstallBundleCostsPerBundle(t *testing.T) {
	opts := multi.Options{WindowSize: 256, Coefficients: 4}
	srv, err := NewServer(core.Options{WindowSize: opts.WindowSize, Coefficients: opts.Coefficients})
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	mon, err := multi.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := mon.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := srv.UseMonitor(mon); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const streams = 64
	names := make([]string, streams)
	srcs := make([]*core.Tree, streams)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
		if err := mon.Add(names[i]); err != nil {
			t.Fatal(err)
		}
		if srcs[i], err = core.New(core.Options{WindowSize: opts.WindowSize, Coefficients: opts.Coefficients}); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 2*opts.WindowSize+i; v++ {
			srcs[i].Update(float64((v*7+i)%41) * 0.25)
		}
	}
	install := func(n int) float64 {
		xfer, err := core.NewBundleTransfer(names[:n], srcs[:n])
		if err != nil {
			t.Fatal(err)
		}
		data, err := xfer.Chunk(0, int(xfer.Len()))
		if err != nil {
			t.Fatal(err)
		}
		asm, err := core.NewSummaryAssembly(xfer.Len(), xfer.CRC())
		if err != nil {
			t.Fatal(err)
		}
		if err := asm.Append(0, data); err != nil {
			t.Fatal(err)
		}
		run := func() {
			if err := srv.installBundle(asm); err != nil {
				t.Fatal(err)
			}
		}
		run()
		allocs := testing.AllocsPerRun(20, run)
		for i, name := range names[:n] {
			tr, err := mon.Tree(name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tr.AppendSummary(nil), srcs[i].AppendSummary(nil)) {
				t.Fatalf("stream %q differs from its source after the install", name)
			}
		}
		return allocs
	}
	small, large := install(8), install(streams)
	if small != large {
		t.Errorf("installing a bundle of 8 allocates %v times, one of %d %v times; want the same", small, streams, large)
	}
	t.Logf("a bundle install allocates %v times", large)
}
