package construct

import (
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// This file pins the wire codecs of the migrated message algorithms:
// decode(encode(msg)) == msg through the exact Outbox/Inbox machinery
// the engine uses (local.NewLoopback), malformed payload rejection, and
// the MsgWords bounds. End-to-end outputs are pinned by digest_test.go.

// FuzzLubyValCodec: two-word value messages round-trip; any other
// payload length is rejected.
func FuzzLubyValCodec(f *testing.F) {
	f.Add(uint64(0), int64(0))
	f.Add(uint64(1)<<63, int64(-1))
	f.Add(uint64(12345), int64(99))
	f.Fuzz(func(t *testing.T, r uint64, id int64) {
		out, in := local.NewLoopback(2, 2)
		v := lubyVal{R: r, ID: id}
		out.Send(0, v.R)
		out.Append(0, uint64(v.ID))
		got, ok := decodeLubyVal(in.Words(0))
		if !ok || got != v {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", v, got, ok)
		}
		// Truncated and padded payloads must be rejected.
		if _, ok := decodeLubyVal(in.Words(0)[:1]); ok {
			t.Error("one-word value accepted")
		}
		if _, ok := decodeLubyVal([]uint64{r, uint64(id), 7}); ok {
			t.Error("three-word value accepted")
		}
		if _, ok := decodeLubyVal(nil); ok {
			t.Error("empty value accepted")
		}
		// A join signal is zero words — and only zero words.
		out.Signal(1)
		if !decodeLubyJoin(in.Words(1)) {
			t.Error("signal rejected as join")
		}
		if decodeLubyJoin(in.Words(0)) {
			t.Error("value payload accepted as join")
		}
	})
}

// FuzzMatchValCodec: three-word draw messages and 3k-word share lists
// round-trip; lengths not a positive multiple of three are rejected.
func FuzzMatchValCodec(f *testing.F) {
	f.Add(uint64(7), int64(3), uint8(1), uint8(3))
	f.Add(uint64(0), int64(-5), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, r uint64, hid int64, hport, k uint8) {
		vals := make([]matchVal, int(k%6)+1)
		for i := range vals {
			vals[i] = matchVal{R: r + uint64(i), HID: hid, HPort: int(hport) + i}
		}
		out, in := local.NewLoopback(1, 3*len(vals))
		for _, v := range vals {
			appendMatchVal(out, 0, v)
		}
		words := in.Words(0)
		n, ok := decodeMatchShare(words)
		if !ok || n != len(vals) {
			t.Fatalf("share list of %d decoded as %d, %v", len(vals), n, ok)
		}
		for i, want := range vals {
			if got := matchValAt(words, i); got != want {
				t.Fatalf("value %d: decode = %+v, want %+v", i, got, want)
			}
		}
		if d, ok := decodeMatchDraw(words[:3]); !ok || d != vals[0] {
			t.Fatalf("draw decode = %+v, %v", d, ok)
		}
		// Malformed: truncated lists, empty lists, overlong draws.
		if _, ok := decodeMatchShare(words[:len(words)-1]); ok {
			t.Error("truncated share list accepted")
		}
		if _, ok := decodeMatchShare(nil); ok {
			t.Error("empty share list accepted")
		}
		if len(vals) > 1 {
			if _, ok := decodeMatchDraw(words); ok {
				t.Error("multi-value draw accepted")
			}
		}
		if !decodeMatchAnnounce(nil) || decodeMatchAnnounce(words) {
			t.Error("announcement codec confused presence with payload")
		}
	})
}

// laneArrival stages words on port 0 of a loopback (a zero-word signal
// when there are none) and reads the arrival back as a vec kernel sees
// it: the lens entry and the first slab word.
func laneArrival(words ...uint64) (int32, uint64) {
	out, in := local.NewLoopback(1, max(len(words), 1))
	if len(words) == 0 {
		out.Signal(0)
	}
	for _, w := range words {
		out.Append(0, w)
	}
	w, _ := in.Word(0)
	return int32(in.Len(0) + 1), w
}

// FuzzRetryColorCodec: single-word colors below q round-trip; oversized
// colors and wrong lengths are rejected.
func FuzzRetryColorCodec(f *testing.F) {
	f.Add(uint64(2), uint8(3))
	f.Add(uint64(0), uint8(1))
	f.Fuzz(func(t *testing.T, c uint64, rawQ uint8) {
		q := uint64(rawQ%8) + 1
		c %= q
		l, w := laneArrival(c)
		if got, ok := decodeRetryColor(l, w, q); !ok || got != c {
			t.Fatalf("decode(encode(%d)) = %d, %v", c, got, ok)
		}
		bad := []struct {
			what  string
			words []uint64
		}{
			{"out-of-palette color", []uint64{q}},
			{"two-word color", []uint64{c, c}},
			{"empty color", nil},
		}
		for _, m := range bad {
			l, w := laneArrival(m.words...)
			if _, ok := decodeRetryColor(l, w, q); ok {
				t.Errorf("%s accepted", m.what)
			}
		}
	})
}

// TestRetryPortMasksMatchDecode pins the retry kernel's branch-free
// port scan against its per-lane codec: for every lane count 1…64 and
// random arrivals — absent, zero-word, one-word and wider lens entries,
// in- and out-of-palette words, words equal and unequal to the lane's
// color — bad holds exactly the arrived lanes decodeRetryColor rejects
// and hit exactly the arrived lanes whose word is the lane's color.
func TestRetryPortMasksMatchDecode(t *testing.T) {
	rnd := localrand.NewSource(41)
	for k := 1; k <= 64; k++ {
		for rep := 0; rep < 50; rep++ {
			q := uint64(rnd.Intn(5) + 1)
			lens := make([]int32, k)
			words := make([]uint64, k)
			color := make([]uint64, k)
			for b := range lens {
				lens[b] = int32(rnd.Intn(4))
				color[b] = uint64(rnd.Intn(int(q)))
				switch rnd.Intn(4) {
				case 0:
					words[b] = color[b]
				case 1:
					words[b] = q + uint64(rnd.Intn(3))
				case 2:
					words[b] = rnd.Uint64()
				default:
					words[b] = uint64(rnd.Intn(int(q)))
				}
			}
			bad, hit := portMasks(lens, words, color, q)
			for b := range lens {
				c, ok := decodeRetryColor(lens[b], words[b], q)
				wantBad := lens[b] != 0 && !ok
				wantHit := lens[b] != 0 && words[b] == color[b]
				if ok && c != words[b] {
					t.Fatalf("decode returned %d for word %d", c, words[b])
				}
				if bad>>b&1 == 1 != wantBad || hit>>b&1 == 1 != wantHit {
					t.Fatalf("k %d lane %d (l %d, w %d, color %d, q %d): bad %v hit %v, want %v %v",
						k, b, lens[b], words[b], color[b], q, bad>>b&1 == 1, hit>>b&1 == 1, wantBad, wantHit)
				}
			}
			if k < 64 && (bad|hit)>>k != 0 {
				t.Fatalf("k %d: masks %x %x set bits past the lanes", k, bad, hit)
			}
		}
	}
}

// FuzzMTEventCodec: violated-event lists of any size (including empty)
// round-trip as sets; bits accept only a single 0/1 word; resample
// commands only zero words.
func FuzzMTEventCodec(f *testing.F) {
	f.Add(int64(4), uint8(3))
	f.Add(int64(-2), uint8(0))
	f.Fuzz(func(t *testing.T, base int64, rawK uint8) {
		k := int(rawK % 5)
		events := make(map[int64]bool, k)
		for i := 0; i < k; i++ {
			events[base+int64(i)] = true
		}
		out, in := local.NewLoopback(2, k+1)
		out.Signal(0)
		for e := range events {
			out.Append(0, uint64(e))
		}
		if got := in.Len(0); got != k {
			t.Fatalf("event list length %d, want %d", got, k)
		}
		seen := make(map[int64]bool, k)
		gatherEvents(seen, in.Words(0))
		if len(seen) != len(events) {
			t.Fatalf("gathered %d events, want %d", len(seen), len(events))
		}
		for e := range events {
			if !seen[e] {
				t.Fatalf("event %d lost in transit", e)
			}
		}
		// Bit codec.
		out.Send(1, 1)
		if b, ok := decodeMTBit(in.Words(1)); !ok || b != 1 {
			t.Fatalf("bit decode = %d, %v", b, ok)
		}
		if _, ok := decodeMTBit([]uint64{2}); ok {
			t.Error("non-binary bit accepted")
		}
		if _, ok := decodeMTBit(nil); ok {
			t.Error("empty bit accepted")
		}
		if _, ok := decodeMTBit([]uint64{0, 0}); ok {
			t.Error("two-word bit accepted")
		}
		// Resample codec: presence only.
		if !decodeMTResample(nil) || decodeMTResample([]uint64{1}) {
			t.Error("resample codec confused presence with payload")
		}
	})
}

// FuzzCVLinialColorCodec: the single-word color codecs of Cole–Vishkin
// (read from a lane's slab row by its kernel) and the Linial reduction.
func FuzzCVLinialColorCodec(f *testing.F) {
	f.Add(uint64(5))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, c uint64) {
		if got, ok := decodeCVColor(laneArrival(c)); !ok || got != c {
			t.Fatalf("cv decode = %d, %v", got, ok)
		}
		out, in := local.NewLoopback(1, 1)
		out.Send(0, c)
		if got, ok := decodeLinialColor(in.Words(0)); !ok || got != c {
			t.Fatalf("linial decode = %d, %v", got, ok)
		}
		for _, bad := range [][]uint64{nil, {c, c}} {
			if _, ok := decodeCVColor(laneArrival(bad...)); ok {
				t.Errorf("cv accepted %v", bad)
			}
			if _, ok := decodeLinialColor(bad); ok {
				t.Errorf("linial accepted %v", bad)
			}
		}
	})
}

// TestGreedyJoinCodec: the zero-word join signal.
func TestGreedyJoinCodec(t *testing.T) {
	out, in := local.NewLoopback(1, 1)
	out.Signal(0)
	if !decodeGreedyJoin(in.Words(0)) {
		t.Error("signal rejected")
	}
	if decodeGreedyJoin([]uint64{1}) {
		t.Error("payload-carrying join accepted")
	}
}

// TestMsgWordsBounds pins that every migrated algorithm's MsgWords is a
// true upper bound on an adversarially busy fixture: runs panic inside
// the engine if a message overflows its slot, so completing cleanly is
// the assertion.
func TestMsgWordsBounds(t *testing.T) {
	g := graph.Complete(8) // degree 7 everywhere: every list maxes out
	in, err := lang.NewInstance(g, lang.EmptyInputs(8), ids.RandomPerm(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(41)
	for trial := 0; trial < 5; trial++ {
		draw := space.Draw(uint64(trial))
		for _, algo := range []local.WireAlgorithm{LubyMIS{}, EdgeLubyMatching{}, MoserTardosLLL{Phases: 4}} {
			if _, err := local.RunMessage(in, algo, &draw, local.RunOptions{}); err != nil {
				t.Fatalf("%s: %v", algo.Name(), err)
			}
		}
	}
	linial := LinialReduction{MaxDegree: 7, MaxIDBits: idBits(in.ID.Max()), TargetColors: 8}
	if _, err := local.RunMessage(in, linial, nil, local.RunOptions{MaxRounds: 4096}); err != nil {
		t.Fatal(err)
	}
}
