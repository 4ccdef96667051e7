package local

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// TestFrameRoundTrip pins the codec: lens and words survive encode →
// decode byte for byte, including empty sections and reused decode
// buffers.
func TestFrameRoundTrip(t *testing.T) {
	blocks := []CutBlock{
		{},
		{Lens: []int32{0, 2, 1}, Words: []uint64{7, ^uint64(0)}},
		{Lens: []int32{1}, Words: nil},
		{Lens: []int32{2, 0}, Words: []uint64{42}},
	}
	var blk CutBlock
	var scratch []byte
	for round, want := range blocks {
		frame := appendFrame(nil, round, want)
		var err error
		scratch, err = readFrame(bytes.NewReader(frame), round, &blk, scratch)
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		if len(blk.Lens) != len(want.Lens) || len(blk.Words) != len(want.Words) {
			t.Fatalf("round %d: shape %d/%d, want %d/%d", round, len(blk.Lens), len(blk.Words), len(want.Lens), len(want.Words))
		}
		for i := range want.Lens {
			if blk.Lens[i] != want.Lens[i] {
				t.Fatalf("round %d: lens[%d] = %d, want %d", round, i, blk.Lens[i], want.Lens[i])
			}
		}
		for i := range want.Words {
			if blk.Words[i] != want.Words[i] {
				t.Fatalf("round %d: words[%d] = %d, want %d", round, i, blk.Words[i], want.Words[i])
			}
		}
	}
}

// corruptFrame returns a valid frame with fn applied to its bytes.
func corruptFrame(t *testing.T, fn func(f []byte) []byte) []byte {
	t.Helper()
	return fn(appendFrame(nil, 3, CutBlock{Lens: []int32{2, 0}, Words: []uint64{9}}))
}

// TestFrameMalformed pins every malformed-frame class to a descriptive
// ErrFrame: truncated header, bad magic, wrong version byte, nonzero
// reserved bytes (the flags byte and header bytes 20–24 included),
// oversized declared sections, truncated payload, and a round mismatch.
func TestFrameMalformed(t *testing.T) {
	cases := map[string]struct {
		frame []byte
		round int
		want  string
	}{
		"truncated-header": {
			frame: corruptFrame(t, func(f []byte) []byte { return f[:frameHdrLen-5] }),
			round: 3, want: "truncated header",
		},
		"bad-magic": {
			frame: corruptFrame(t, func(f []byte) []byte { f[0] = 'X'; return f }),
			round: 3, want: "bad magic",
		},
		"wrong-version": {
			frame: corruptFrame(t, func(f []byte) []byte { f[4] = 9; return f }),
			round: 3, want: "version 9",
		},
		"reserved-bytes": {
			frame: corruptFrame(t, func(f []byte) []byte { f[6] = 1; return f }),
			round: 3, want: "reserved",
		},
		"refs-flag": {
			frame: corruptFrame(t, func(f []byte) []byte { f[5] = 1; return f }),
			round: 3, want: "reserved",
		},
		"refs-length": {
			frame: corruptFrame(t, func(f []byte) []byte {
				binary.LittleEndian.PutUint32(f[20:24], 8)
				return f
			}),
			round: 3, want: "reserved",
		},
		"oversized": {
			frame: corruptFrame(t, func(f []byte) []byte {
				binary.LittleEndian.PutUint32(f[16:20], 1<<30)
				return f
			}),
			round: 3, want: "oversized",
		},
		"truncated-payload": {
			frame: corruptFrame(t, func(f []byte) []byte { return f[:len(f)-3] }),
			round: 3, want: "truncated payload",
		},
		"round-mismatch": {
			frame: corruptFrame(t, func(f []byte) []byte { return f }),
			round: 4, want: "round 3 arrived in round 4",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var blk CutBlock
			_, err := readFrame(bytes.NewReader(tc.frame), tc.round, &blk, nil)
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("err = %v, want ErrFrame", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %q does not describe %q", err, tc.want)
			}
		})
	}
}

// TestFrameHugeDeclaredPayload pins that a header's declared length is
// not trusted up front: a frame claiming the largest legal word section
// but carrying 100 bytes fails as truncated after buffering only what
// arrived.
func TestFrameHugeDeclaredPayload(t *testing.T) {
	frame := corruptFrame(t, func(f []byte) []byte {
		binary.LittleEndian.PutUint32(f[16:20], maxFrameSection)
		return append(f, make([]byte, 100)...)
	})
	var blk CutBlock
	scratch, err := readFrame(bytes.NewReader(frame), 3, &blk, nil)
	if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "truncated payload") {
		t.Fatalf("err = %v, want a truncated-payload ErrFrame", err)
	}
	if cap(scratch) > 2*frameReadChunk {
		t.Fatalf("buffered %d bytes for a %d-byte payload", cap(scratch), len(frame)-frameHdrLen)
	}
}

// TestInstallCutRejectsMismatch pins the engine-side shape validation: a
// decoded block whose lens or words disagree with the receiver's layout
// returns a descriptive error instead of corrupting slabs or panicking.
func TestInstallCutRejectsMismatch(t *testing.T) {
	g := graph.Cycle(8)
	plan := MustPlan(g)
	sh, err := plan.NewSharded(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, g)
	// One clean run computes the layout and slabs.
	if _, err := sh.Run(in, wireMix{rounds: 2}, drawRange(localrand.NewTapeSpace(3), 0, 2), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	bt := sh.shards[1].bt
	port := sh.shards[1].in[0]
	k := 2
	if err := bt.installCut(port.haloLo, len(port.cut), k, CutBlock{Lens: []int32{1}}); err == nil ||
		!strings.Contains(err.Error(), "lens") {
		t.Fatalf("short lens accepted: %v", err)
	}
	lens := make([]int32, len(port.cut)*k)
	if err := bt.installCut(port.haloLo, len(port.cut), k, CutBlock{Lens: lens, Words: make([]uint64, 1)}); err == nil ||
		!strings.Contains(err.Error(), "words") {
		t.Fatalf("word-count mismatch accepted: %v", err)
	}
}

// TestShardedTCPLoopback runs the sharded engine over real loopback TCP
// links — the framed byte-stream transport end to end — and pins
// byte-identical results against the unsharded batch, reuse across
// back-to-back runs included.
func TestShardedTCPLoopback(t *testing.T) {
	space := localrand.NewTapeSpace(41)
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			in := mustInstance(t, g)
			plan := MustPlan(g)
			bt := plan.NewBatch(3)
			sh, err := plan.NewSharded(3, 3)
			if err != nil {
				t.Fatal(err)
			}
			sh.UseTCPLoopback()
			defer sh.Close()
			lo := 0
			for rep, k := range []int{3, 2} {
				draws := drawRange(space, lo, k)
				want, err := bt.Run(in, wireMix{rounds: 4}, draws, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := sh.Run(in, wireMix{rounds: 4}, draws, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for b := 0; b < k; b++ {
					expectSameResult(t, fmt.Sprintf("tcp rep %d lane %d", rep, b), want[b], got[b])
				}
				lo += k
			}
		})
	}
}

// TestShardedTCPRecoversAfterAbort pins the pooled-connection hygiene of
// the loopback transport: a run that dies mid-round (one shard panics,
// its peer's Recv hits the link deadline) may strand stale or partial
// frames in the pooled sockets, so the next run must get fresh
// connections — and byte-identical results — instead of round-mismatch
// errors off the poisoned streams.
func TestShardedTCPRecoversAfterAbort(t *testing.T) {
	g := graph.Cycle(10)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	sh, err := plan.NewSharded(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetLinkTimeout(200 * time.Millisecond)
	sh.UseTCPLoopback()
	defer sh.Close()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the node panic to re-raise")
			}
		}()
		sh.RunInstances([]*lang.Instance{in}, panicOnNode{node: in.ID[7]}, nil, RunOptions{})
	}()

	draws := drawRange(localrand.NewTapeSpace(61), 0, 2)
	want, err := plan.NewBatch(2).Run(in, wireMix{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.Run(in, wireMix{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatalf("run after aborted TCP run: %v", err)
	}
	for b := range draws {
		expectSameResult(t, fmt.Sprintf("post-abort lane %d", b), want[b], got[b])
	}
}

// TestInstallCutRejectsOversizedLens pins the value-level validation: a
// structurally valid frame whose lens entry exceeds the slot's word
// capacity must be refused — the Inbox would otherwise read past the
// slot's words (or panic) on delivery.
func TestInstallCutRejectsOversizedLens(t *testing.T) {
	g := graph.Cycle(8)
	plan := MustPlan(g)
	sh, err := plan.NewSharded(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, g)
	if _, err := sh.Run(in, wireMix{rounds: 2}, drawRange(localrand.NewTapeSpace(9), 0, 2), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	bt := sh.shards[1].bt
	port := sh.shards[1].in[0]
	k := 2
	lens := make([]int32, len(port.cut)*k)
	words := 0
	for i := range port.cut {
		words += int(bt.capW[port.haloLo+i]) * k
	}
	lens[0] = bt.capW[port.haloLo] + 2 // one word past the slot capacity
	err = bt.installCut(port.haloLo, len(port.cut), k, CutBlock{Lens: lens, Words: make([]uint64, words)})
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("oversized len accepted: %v", err)
	}
}

// TestShardedGarbageStream pins the decode → abort path end to end: a
// link whose byte stream is garbage aborts the sharded run with a
// descriptive frame error — no panic, no hang.
func TestShardedGarbageStream(t *testing.T) {
	g := graph.Cycle(8)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	sh, err := plan.NewSharded(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetLinkFactory(func(from, to int, cut []int32) ShardLink {
		recvA, recvB := net.Pipe()
		go recvB.Write([]byte("this is not a cut block frame, not even close!!"))
		sendA, sendB := net.Pipe()
		go io.Copy(io.Discard, sendB)
		return StreamLink(sendA, recvA, 200*time.Millisecond)
	})
	_, err = sh.Run(in, wireMix{rounds: 2}, drawRange(localrand.NewTapeSpace(5), 0, 2), RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("garbage stream: err = %v, want a frame error", err)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder, expecting
// the round the header names. The decoder must never panic, and every
// frame it accepts must re-encode to exactly the bytes it consumed. The
// seeds are two valid frames plus the committed corpus in
// testdata/fuzz/FuzzReadFrame: one frame of each malformed class, a
// header declaring a 512 MiB payload that never arrives, and a valid
// frame followed by trailing bytes.
func FuzzReadFrame(f *testing.F) {
	for round, blk := range []CutBlock{{}, {Lens: []int32{2, 0, 1}, Words: []uint64{7, ^uint64(0)}}} {
		f.Add(appendFrame(nil, round, blk))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		round := 0
		if len(data) >= 12 {
			round = int(binary.LittleEndian.Uint32(data[8:12]))
		}
		r := bytes.NewReader(data)
		var blk CutBlock
		if _, err := readFrame(r, round, &blk, nil); err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		again := appendFrame(nil, round, blk)
		if !bytes.Equal(again, consumed) {
			t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", again, consumed)
		}
	})
}
