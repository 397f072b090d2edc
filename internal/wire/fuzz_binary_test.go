package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/streamsum/swat/internal/codec"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/query"
)

// FuzzDecodeBinaryFrame hardens the frame layer against arbitrary
// bytes: readBinFrame plus every body decoder must reject corruption
// with an error — never panic, and never trust a hostile length field
// into a huge allocation (the codec's MaxFrame bound and the per-type
// structural checks are what this pins).
func FuzzDecodeBinaryFrame(f *testing.F) {
	// Seed corpus: one valid frame per type, plus corruptions.
	f.Add(appendDataFrame(nil, 0, []float64{1, 2, 3}))
	f.Add(appendQueryFrame(nil, []query.Query{
		{Ages: []int{0, 1}, Weights: []float64{1, 0.5}},
	}))
	f.Add(appendAnswerFrame(nil, []float64{2.5}))
	f.Add(appendStatsResFrame(nil, StatsV2{Arrivals: 9, Ready: true}))
	f.Add(appendU64Frame(nil, bfPing, 42))
	f.Add(appendHelloFrame(nil))
	f.Add(appendHelloAckFrame(nil, IngestShed, 64))
	f.Add(appendErrorFrame(nil, "boom"))
	// Flipped CRC byte.
	bad := appendDataFrame(nil, 0, []float64{1})
	bad[5] ^= 0xFF
	f.Add(bad)
	// Truncations and garbage.
	good := appendQueryFrame(nil, []query.Query{{Ages: []int{3}, Weights: []float64{2}}})
	f.Add(good[:len(good)-3])
	f.Add(good[:codec.HeaderLen])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})
	// Stream-addressed frames.
	f.Add(appendStreamDataFrame(nil, "cpu.load", 3, []float64{1, -2.5}))
	f.Add(appendStreamSumFrame(nil, "cpu.load", 3))
	f.Add(appendStreamPointsFrame(nil, 7, 2, []string{"cpu.load", "mem", "disk.io"}))
	res := beginStreamPointsRes(nil, 2)
	res = appendStreamPointOK(res, 1.5, 0.25, 42)
	f.Add(codec.Finish(appendRefusal(res, "core: not covered"), 0))
	// Hostile counts and lengths: name and entry counts no payload could
	// hold, and name and message lengths past their caps.
	spoint := func(n uint32, nameLen uint16) []byte {
		b := append(codec.Begin(nil), bfSPoint)
		b = append(b, make([]byte, 12)...) // epoch, age
		b = binary.BigEndian.AppendUint32(b, n)
		b = binary.BigEndian.AppendUint16(b, nameLen)
		return codec.Finish(append(b, 's'), 0)
	}
	f.Add(spoint(0xFFFFFFFF, 1))
	f.Add(spoint(1, 0xFFFF))
	f.Add(codec.Finish(append(codec.Begin(nil), bfSPointRes, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0xFF, 0xFF), 0))
	// Batched folds: a request, replies with and without a summary, a
	// reply whose summary is cut short, and hostile counts and lengths.
	f.Add(appendStreamFoldFrame(nil, 7, core.MergeOptions{ValueHi: 100}, []string{"cpu.load", "mem"}, []int64{64, 70}))
	tr, err := core.New(core.Options{WindowSize: 16})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		tr.Update(float64(i))
	}
	folded := tr.AppendSummary(append(appendRefusal(beginStreamFoldRes(nil, 2), "multi: unknown stream"), 1))
	f.Add(codec.Finish(folded, 0))
	f.Add(codec.Finish(folded[:len(folded)-9], 0))
	f.Add(codec.Finish(appendRefusal(beginStreamFoldRes(nil, 1), "core: cold"), 0))
	sfold := func(n uint32, nameLen uint16) []byte {
		b := append(codec.Begin(nil), bfSFold)
		b = append(b, make([]byte, 24)...) // epoch, lo, hi
		b = binary.BigEndian.AppendUint32(b, n)
		b = binary.BigEndian.AppendUint16(b, nameLen)
		return codec.Finish(append(b, 's', 0, 0, 0, 0, 0, 0, 0, 1), 0)
	}
	f.Add(sfold(0xFFFFFFFF, 1))
	f.Add(sfold(1, 0xFFFF))
	f.Add(codec.Finish(append(codec.Begin(nil), bfSFoldRes, 0xFF, 0xFF, 0xFF, 0xFF, 1), 0))
	// Standing queries: a subscription, its reply, a push, plus a
	// subscribe carrying two queries and one cut inside its minChange.
	f.Add(appendSubscribeFrame(nil, query.Query{Ages: []int{0, 3}, Weights: []float64{1, -0.5}}, 2.5))
	f.Add(appendSubscribedFrame(nil, 7))
	f.Add(appendNotifyFrame(nil, 7, -1.25, 1<<40))
	two := appendQueryFrame(nil, []query.Query{{Ages: []int{1}, Weights: []float64{1}}, {Ages: []int{2}, Weights: []float64{1}}})
	f.Add(codec.AppendFrame(nil, append([]byte{bfSubscribe, 0, 0, 0, 0, 0, 0, 0, 0}, two[codec.HeaderLen+1:]...)))
	f.Add(codec.AppendFrame(nil, []byte{bfSubscribe, 0x3F, 0xF0}))

	f.Fuzz(func(t *testing.T, data []byte) {
		body, buf, err := readBinFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if len(body) == 0 {
			t.Fatal("readBinFrame accepted an empty body")
		}
		if len(buf) > MaxFrame {
			t.Fatalf("frame buffer grew to %d, beyond MaxFrame", len(buf))
		}
		payload := body[1:]
		switch body[0] {
		case bfData:
			first, vals, err := decodeDataFrame(payload, nil)
			if err == nil {
				// Accepted data frames must re-encode identically.
				re := appendDataFrame(nil, first, vals)
				rebody, _, rerr := codec.Next(re, MaxFrame)
				if rerr != nil || !bytes.Equal(rebody, body) {
					t.Fatalf("data frame did not round-trip: %v", rerr)
				}
			}
		case bfQuery:
			var sc binQueryScratch
			if err := decodeQueryFrame(payload, &sc); err == nil {
				if len(sc.qs) == 0 {
					t.Fatal("accepted query frame decoded to no queries")
				}
				for _, q := range sc.qs {
					if len(q.Ages) == 0 || len(q.Ages) != len(q.Weights) {
						t.Fatalf("malformed decoded query %+v", q)
					}
				}
				re := appendQueryFrame(nil, sc.qs)
				rebody, _, rerr := codec.Next(re, MaxFrame)
				if rerr != nil || !bytes.Equal(rebody, body) {
					t.Fatalf("query frame did not round-trip: %v", rerr)
				}
			}
		case bfAnswer:
			if len(payload) >= 4 {
				n := int(uint32(payload[0])<<24 | uint32(payload[1])<<16 | uint32(payload[2])<<8 | uint32(payload[3]))
				if n >= 0 && n <= MaxBatchValues {
					//lint:allow sentinelcheck fuzzing for panics, not errors: any error return is a valid outcome
					_ = decodeAnswerFrame(payload, make([]float64, n))
				}
			}
		case bfStatsRes:
			// The ready flag decodes leniently (anything non-1 is false),
			// so only canonical encodings are required to round-trip.
			if st, err := decodeStatsResFrame(payload); err == nil && payload[16] <= 1 {
				re := appendStatsResFrame(nil, st)
				rebody, _, rerr := codec.Next(re, MaxFrame)
				if rerr != nil || !bytes.Equal(rebody, body) {
					t.Fatalf("stats frame did not round-trip: %v", rerr)
				}
			}
		case bfSData:
			if name, epoch, vals, err := decodeStreamDataFrame(payload, nil); err == nil {
				checkReencode(t, "sdata", body, appendStreamDataFrame(nil, string(name), epoch, vals))
			}
		case bfSSum:
			// The server's ssum parse: epoch, one name, nothing after.
			if epoch, rest, err := splitEpoch(payload); err == nil {
				if name, rest, err := splitStreamName(rest); err == nil && len(rest) == 0 {
					checkReencode(t, "ssum", body, appendStreamSumFrame(nil, string(name), epoch))
				}
			}
		case bfSPoint:
			epoch, age, n, names, err := decodeStreamPointsFrame(payload)
			if err != nil {
				return
			}
			if n > len(payload)/3 || spointResHdr+n*spointEntryMax > MaxFrame {
				t.Fatalf("spoint accepted %d names from a %d-byte payload", n, len(payload))
			}
			decoded := make([]string, n)
			for i := range decoded {
				var name []byte
				name, names, _ = splitStreamName(names)
				decoded[i] = string(name)
			}
			checkReencode(t, "spoint", body, appendStreamPointsFrame(nil, epoch, age, decoded))
		case bfSPointRes:
			// A reply's count sizes nothing until it matches the request;
			// here it may size dst only as far as the payload could back.
			if len(payload) < 4 || int(binary.BigEndian.Uint32(payload)) > len(payload)/3 {
				return
			}
			dst := make([]StreamPointResult, binary.BigEndian.Uint32(payload))
			if decodeStreamPointsRes(payload, dst) != nil {
				return
			}
			re := beginStreamPointsRes(nil, len(dst))
			for _, r := range dst {
				var remote *RemoteError
				if errors.As(r.Err, &remote) {
					re = appendRefusal(re, remote.Msg)
				} else {
					re = appendStreamPointOK(re, r.Value, r.Bound, r.Arrivals)
				}
			}
			checkReencode(t, "spointRes", body, codec.Finish(re, 0))
		case bfSFold:
			epoch, o, n, entries, err := decodeStreamFoldFrame(payload)
			if err != nil {
				return
			}
			if n > len(payload)/sfoldEntryMin || sfoldResHdr+n*spointEntryMax > MaxFrame {
				t.Fatalf("sfold accepted %d names from a %d-byte payload", n, len(payload))
			}
			names, sent := make([]string, n), make([]int64, n)
			for i := range names {
				var name []byte
				name, sent[i], entries, _ = splitFoldEntry(entries)
				names[i] = string(name)
			}
			checkReencode(t, "sfold", body, appendStreamFoldFrame(nil, epoch, o, names, sent))
		case bfSFoldRes:
			// Every status is at least one byte, so that bounds the count.
			if len(payload) < 4 || int(binary.BigEndian.Uint32(payload)) > len(payload)-4 {
				return
			}
			refused := make([]error, binary.BigEndian.Uint32(payload))
			sum, err := decodeStreamFoldRes(payload, refused)
			if err != nil {
				return
			}
			re := beginStreamFoldRes(nil, len(refused))
			for _, r := range refused {
				var remote *RemoteError
				if errors.As(r, &remote) {
					re = appendRefusal(re, remote.Msg)
				} else {
					re = append(re, 1)
				}
			}
			checkReencode(t, "sfoldRes", body, codec.Finish(append(re, sum...), 0))
			if sum != nil {
				// The summary self-validates; a cut or corrupt one is an
				// error, never a panic.
				//lint:allow sentinelcheck fuzzing for panics, not errors: any error return is a valid outcome
				_, _ = core.DecodeSummary(sum)
			}
		case bfSubscribe:
			var sc binQueryScratch
			if minChange, err := decodeSubscribeFrame(payload, &sc); err == nil {
				checkReencode(t, "subscribe", body, appendSubscribeFrame(nil, sc.qs[0], minChange))
			}
		case bfSubscribed:
			if len(payload) == 4 {
				checkReencode(t, "subscribed", body, appendSubscribedFrame(nil, int(binary.BigEndian.Uint32(payload))))
			}
		case bfNotify:
			if n, err := decodeNotifyFrame(payload); err == nil {
				checkReencode(t, "notify", body, appendNotifyFrame(nil, n.ID, n.Value, n.Arrivals))
			}
		}
	})
}

// checkReencode fails the fuzz run unless re frames exactly body.
func checkReencode(t *testing.T, kind string, body, re []byte) {
	t.Helper()
	rebody, _, err := codec.Next(re, MaxFrame)
	if err != nil || !bytes.Equal(rebody, body) {
		t.Fatalf("%s frame did not round-trip: %v", kind, err)
	}
}
