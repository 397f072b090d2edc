package wire

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/multi"
	"github.com/streamsum/swat/internal/stream"
)

// foldRange covers feedWarm's values.
var foldRange = core.MergeOptions{ValueLo: 0, ValueHi: 20}

// encodedSummary is a summary's canonical encoding.
func encodedSummary(t *testing.T, s *core.Summary) []byte {
	t.Helper()
	tr, err := core.FromSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr.AppendSummary(nil)
}

// TestStreamFoldFrameRoundTrips pins the sfold/sfoldRes codecs: the
// request decodes to its epoch, range, names and sent counts; the reply
// to its statuses and the summary bytes, which are absent when nothing
// folded.
func TestStreamFoldFrameRoundTrips(t *testing.T) {
	names := []string{"cpu.load", "mem"}
	sent := []int64{64, 1 << 40}
	o := core.MergeOptions{ValueLo: -1.5, ValueHi: 2.5}
	frame := appendStreamFoldFrame(nil, 9, o, names, sent)
	epoch, got, n, entries, err := decodeStreamFoldFrame(frame[codec.HeaderLen+1:])
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 9 || got != o || n != 2 {
		t.Fatalf("sfold decoded as epoch %d, range %+v, %d names", epoch, got, n)
	}
	for i := 0; i < n; i++ {
		var name []byte
		var s int64
		if name, s, entries, err = splitFoldEntry(entries); err != nil {
			t.Fatal(err)
		}
		if string(name) != names[i] || s != sent[i] {
			t.Errorf("entry %d decoded as (%q, %d)", i, name, s)
		}
	}

	tr, err := core.New(core.Options{WindowSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tr.Update(float64(i))
	}
	long := strings.Repeat("m", 2*maxRefusalMsg)
	res := append(beginStreamFoldRes(nil, 2), 1)
	res = codec.Finish(tr.AppendSummary(appendRefusal(res, long)), 0)
	refused := make([]error, 2)
	sum, err := decodeStreamFoldRes(res[codec.HeaderLen+1:], refused)
	if err != nil {
		t.Fatal(err)
	}
	var remote *RemoteError
	if refused[0] != nil || !errors.As(refused[1], &remote) || remote.Msg != long[:maxRefusalMsg] {
		t.Errorf("statuses decoded as %v", refused)
	}
	if !bytes.Equal(sum, tr.AppendSummary(nil)) {
		t.Error("reply summary bytes changed in transit")
	}

	none := codec.Finish(appendRefusal(beginStreamFoldRes(nil, 1), "core: cold"), 0)
	if sum, err := decodeStreamFoldRes(none[codec.HeaderLen+1:], refused[:1]); sum != nil || err != nil || refused[0] == nil {
		t.Errorf("all-refused reply decoded as (%v, %v, %v)", sum, err, refused[0])
	}
}

// TestStreamFoldFit pins the client's frame split: a request splits
// exactly when the next name would push the request, or its worst-case
// reply — statuses plus a summary of sumMax bytes — past MaxFrame.
func TestStreamFoldFit(t *testing.T) {
	long := strings.Repeat("n", maxStreamName)
	perFrame := (MaxFrame - sfoldHdr) / (2 + maxStreamName + 8)
	names := make([]string, perFrame+1)
	for i := range names {
		names[i] = long
	}
	if got := sfoldFit(names, 0); got != perFrame {
		t.Fatalf("long names: %d fit one frame, want %d", got, perFrame)
	}
	if got := len(appendStreamFoldFrame(nil, 1, foldRange, names[:perFrame], make([]int64, perFrame))) - codec.HeaderLen; got > MaxFrame {
		t.Fatalf("a full sfold frame is %d bytes, over MaxFrame", got)
	}
	const sumMax = 100_000
	byReply := (MaxFrame - sfoldResHdr - sumMax) / spointEntryMax
	short := make([]string, byReply+1)
	for i := range short {
		short[i] = "s"
	}
	if got := sfoldFit(short, sumMax); got != byReply {
		t.Fatalf("short names: %d fit one frame, want %d (reply-bound)", got, byReply)
	}
	if got := sfoldFit(short, MaxFrame); got != 0 {
		t.Fatalf("%d names fit beside a summary as large as a frame", got)
	}
}

func TestStreamFoldDecodeErrors(t *testing.T) {
	head := func(n uint32) []byte { // epoch, lo, hi, count
		return append(make([]byte, 24), byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
	entry := []byte{0, 1, 's', 0, 0, 0, 0, 0, 0, 0, 7}
	if _, _, _, _, err := decodeStreamFoldFrame(make([]byte, 27)); err == nil {
		t.Error("sfold without a whole count accepted")
	}
	if _, _, _, _, err := decodeStreamFoldFrame(append(head(0), entry...)); err == nil {
		t.Error("sfold with no names accepted")
	}
	if _, _, _, _, err := decodeStreamFoldFrame(append(head(0xFFFFFFFF), entry...)); err == nil {
		t.Error("sfold with a hostile count accepted")
	}
	if _, _, _, _, err := decodeStreamFoldFrame(append(head(1), entry[:len(entry)-1]...)); err == nil {
		t.Error("sfold entry without a whole sent count accepted")
	}
	if _, _, _, _, err := decodeStreamFoldFrame(append(append(head(1), entry...), 0)); err == nil {
		t.Error("sfold with trailing bytes accepted")
	}
	short := make([]string, (MaxFrame-sfoldResHdr)/spointEntryMax+1)
	for i := range short {
		short[i] = "s"
	}
	big := appendStreamFoldFrame(nil, 0, foldRange, short, make([]int64, len(short)))
	if _, _, _, _, err := decodeStreamFoldFrame(big[codec.HeaderLen+1:]); err == nil {
		t.Error("sfold whose statuses alone could outgrow MaxFrame accepted")
	}

	tr, err := core.New(core.Options{WindowSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	tr.Update(1)
	sum := tr.AppendSummary(nil)
	refused := make([]error, 1)
	for name, payload := range map[string][]byte{
		"count mismatch":         append([]byte{0, 0, 0, 2, 1}, sum...),
		"folded without summary": {0, 0, 0, 1, 1},
		"summary without folded": append([]byte{0, 0, 0, 1, 0, 0, 0}, sum...),
		"unknown status":         append([]byte{0, 0, 0, 1, 2}, sum...),
		"truncated refusal":      {0, 0, 0, 1, 0, 0, 9, 'x'},
	} {
		if _, err := decodeStreamFoldRes(payload, refused); err == nil {
			t.Errorf("%s: sfoldRes accepted", name)
		}
	}
}

// TestStreamFoldsBatch pins the fold over a socket: the reply is the
// server monitor's own FoldSummary, byte for byte — unknown and cold
// streams refused, a lagging stream advanced to the sent count — and a
// stale epoch refuses every entry while the connection lives on.
func TestStreamFoldsBatch(t *testing.T) {
	opts := multi.Options{WindowSize: 16, Coefficients: 4, MinLevel: 2}
	geo := core.Options{WindowSize: 16, Coefficients: 4, MinLevel: 2}
	addr, mon, shutdown := startStreamServer(t, opts)
	defer shutdown()
	feedWarm(t, addr, mon, "alpha", 40)
	feedWarm(t, addr, mon, "beta", 40)
	feedWarm(t, addr, mon, "cold", 3)
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	names := []string{"alpha", "ghost", "beta", "cold"}
	sent := []int64{40, 1, 45, 3}
	refused := make([]error, len(names))
	sum, err := c.FoldStreams(geo, names, sent, foldRange, refused)
	if err != nil {
		t.Fatal(err)
	}
	var remote *RemoteError
	for i, name := range names {
		if want := name == "ghost" || name == "cold"; errors.As(refused[i], &remote) != want {
			t.Errorf("%s: refusal %v, want refused %v", name, refused[i], want)
		}
	}
	want, err := mon.FoldSummary(names, sent, foldRange, make([]error, len(names)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodedSummary(t, sum), encodedSummary(t, want)) {
		t.Error("fold over the socket differs from the server monitor's own fold")
	}
	if sum.Streams != 2 || sum.Arrivals != 45 || len(sum.Taint) == 0 {
		t.Errorf("fold of alpha and lagging beta: %d streams at %d arrivals, taint %v", sum.Streams, sum.Arrivals, sum.Taint)
	}

	ctl, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if _, err := ctl.SetRingEpoch(5); err != nil {
		t.Fatal(err)
	}
	c.SetEpoch(4)
	if sum, err = c.FoldStreams(geo, names, sent, foldRange, refused); err != nil || sum != nil {
		t.Fatalf("stale fold = (%v, %v), want no summary and no error", sum, err)
	}
	for i, r := range refused {
		if !errors.As(r, &remote) || !strings.Contains(r.Error(), "epoch") {
			t.Errorf("stale entry %q: %v, want an epoch refusal", names[i], r)
		}
	}
	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping after a stale fold: %v", err)
	}
}

// TestStreamFoldsSplit gives FoldStreams a geometry whose worst-case
// summary leaves room for about a thousand statuses, and more streams
// than that: the request splits, and the result is the fold of the two
// frames' partials in request order.
func TestStreamFoldsSplit(t *testing.T) {
	big := core.Options{WindowSize: 1 << 15, Coefficients: 1 << 14}
	sumMax, err := core.MaxSummaryLen(big)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 2000)
	for i := range names {
		names[i] = fmt.Sprintf("s%05d", i)
	}
	k := sfoldFit(names, sumMax)
	if k == 0 || k == len(names) {
		t.Fatalf("%d of %d names fit one frame; the test needs a split", k, len(names))
	}
	names = names[:k+k/2] // two frames, the second half as full as the first

	addr, mon, shutdown := startStreamServer(t, multi.Options{WindowSize: 4, Coefficients: 1})
	defer shutdown()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Full-precision values: the sums round differently in another fold
	// order, so the result shows where the request split.
	sent := make([]int64, len(names))
	vs := make([]float64, 8)
	for i, name := range names {
		sent[i] = int64(len(vs))
		src := stream.UniformRange(int64(i+1), 0, 20)
		for j := range vs {
			vs[j] = src.Next()
		}
		if err := c.FeedStream(name, vs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		waitStreamArrivals(t, mon, name, 8)
	}

	refused := make([]error, len(names))
	sum, err := c.FoldStreams(big, names, sent, foldRange, refused)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refused {
		if r != nil {
			t.Fatalf("%s refused: %v", names[i], r)
		}
	}
	first, err := mon.FoldSummary(names[:k], sent[:k], foldRange, refused[:k])
	if err != nil {
		t.Fatal(err)
	}
	second, err := mon.FoldSummary(names[k:], sent[k:], foldRange, refused[k:])
	if err != nil {
		t.Fatal(err)
	}
	unsplit, err := mon.FoldSummary(names, sent, foldRange, refused)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Accumulate(first, second, foldRange)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encodedSummary(t, unsplit), encodedSummary(t, want)) {
		t.Fatal("values too tame: a split fold cannot be told from an unsplit one")
	}
	if sum.Streams != len(names) || !bytes.Equal(encodedSummary(t, sum), encodedSummary(t, want)) {
		t.Errorf("split fold of %d streams (%d in the first frame) differs from the fold of its partials", len(names), k)
	}
}
