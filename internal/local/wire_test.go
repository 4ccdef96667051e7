package local

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/localrand"
)

// wireMix is a wire-native test algorithm exercising every Outbox verb:
// each round a node mixes the first words it received into its state,
// sends the state word on even ports, appends a second word (the round)
// on ports divisible by 4, and signals (zero words) on odd ports. The
// output is the folded state, so any transport discrepancy — presence,
// word content, payload length — changes the bytes.
type wireMix struct{ rounds int }

func (w wireMix) Name() string                { return fmt.Sprintf("wire-mix(%d)", w.rounds) }
func (w wireMix) MsgWords(int) int            { return 2 }
func (w wireMix) NewWireProcess() WireProcess { return &wireMixProc{rounds: w.rounds} }

type wireMixProc struct {
	rounds int
	state  uint64
}

func (p *wireMixProc) send(out *Outbox) {
	for port := 0; port < out.Degree(); port++ {
		switch {
		case port%4 == 0:
			out.Send(port, p.state)
			out.Append(port, p.state>>32)
		case port%2 == 0:
			out.Send(port, p.state)
		default:
			out.Signal(port)
		}
	}
}

// ResetProcess implements ResetProcess so the pooling tests can exercise
// the reset-and-reuse path with a native wire algorithm.
func (p *wireMixProc) ResetProcess() { *p = wireMixProc{rounds: p.rounds} }

func (p *wireMixProc) Start(info NodeInfo, out *Outbox) {
	p.state = uint64(info.ID) * 0x9e3779b97f4a7c15
	if info.Tape != nil {
		p.state ^= info.Tape.Uint64()
	}
	p.send(out)
}

func (p *wireMixProc) Step(round int, in *Inbox, out *Outbox) bool {
	for port := 0; port < in.Degree(); port++ {
		if !in.Has(port) {
			p.state = p.state*3 + 1
			continue
		}
		for _, w := range in.Words(port) {
			p.state ^= w + uint64(in.Len(port))
		}
	}
	if round >= p.rounds {
		return true
	}
	p.send(out)
	return false
}

func (p *wireMixProc) Output() []byte { return encode64(int64(p.state)) }

// TestWireDigests pins the wire core's outputs and Stats on every graph
// family to committed sha256 digests: wireMix single-shot, then three
// batched lanes. The digests were recorded while this fixture was still
// checked against the boxed []Message reference transport on the same
// runs, so they carry that equivalence forward; the differential tests
// compare engine shapes with each other, and these pin all of them to
// the reference values.
func TestWireDigests(t *testing.T) {
	want := map[string]string{
		"connected-gnp":  "471000a041d4150e5b446ec01a30bc0e4bfedb20c73fd105d30f1baacda063a1",
		"cycle":          "7867300ed90a115f48b13fba7fab47d19e6c3c7e35b5e374ddc777f70413bc23",
		"grid":           "1ba4866f769fc71c19536f9acfe326a3fdcde14b8364c7a21a40560156de0471",
		"random-regular": "5e9ceaa9063bd6eeee0b2b14773cf470ef91d01b9c6082a48c84f94b0a21e34d",
		"star":           "cab647f14e94f4d433f2d91408de98a4897c50c79ae3b4108ccb2df9ac6ab464",
		"tree":           "4d82f01bd90f44b5482267f7cfd633181ba5ffab724a8d7b4198795ea1c1dcb8",
	}
	space := localrand.NewTapeSpace(81)
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			in := mustInstance(t, g)
			algo := wireMix{rounds: 4}
			h := sha256.New()
			draw := space.Draw(9)
			res, err := RunMessage(in, algo, &draw, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			hashResult(h, res)
			lanes, err := MustPlan(g).NewBatch(3).Run(in, algo, drawRange(space, 20, 3), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range lanes {
				hashResult(h, res)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
				t.Errorf("digest %s, want %s", got, want[name])
			}
		})
	}
}

// hashResult feeds one execution's Stats and length-prefixed outputs
// into h.
func hashResult(h hash.Hash, res *Result) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(res.Stats.Rounds))
	put(uint64(res.Stats.Messages))
	put(uint64(res.Y.Len()))
	for v := range res.Y.Len() {
		y := res.Y.At(v)
		put(uint64(len(y)))
		h.Write(y)
	}
}

// TestWireLoopback exercises the Outbox staging verbs and Inbox readers
// through the loopback pair, without an engine.
func TestWireLoopback(t *testing.T) {
	out, in := NewLoopback(4, 3)

	// Port 0: nothing staged.
	if in.Has(0) {
		t.Error("port 0: phantom message")
	}
	if got := in.Len(0); got != -1 {
		t.Errorf("port 0: Len = %d, want -1", got)
	}
	if _, ok := in.Word(0); ok {
		t.Error("port 0: Word on absent message")
	}
	if in.Words(0) != nil {
		t.Error("port 0: Words on absent message")
	}

	// Port 1: zero-word signal.
	out.Signal(1)
	if !in.Has(1) || in.Len(1) != 0 {
		t.Errorf("port 1: Has=%v Len=%d, want present empty", in.Has(1), in.Len(1))
	}
	if _, ok := in.Word(1); ok {
		t.Error("port 1: Word on empty message")
	}

	// Port 2: one word, then replaced, then extended.
	out.Send(2, 7)
	out.Send(2, 9)
	out.Append(2, 11)
	if w, ok := in.Word(2); !ok || w != 9 {
		t.Errorf("port 2: Word = %d,%v, want 9,true", w, ok)
	}
	words := in.Words(2)
	if len(words) != 2 || words[0] != 9 || words[1] != 11 {
		t.Errorf("port 2: Words = %v, want [9 11]", words)
	}

	// Port 3: Append onto an empty port starts a message.
	out.Append(3, 5)
	if w := in.Words(3); len(w) != 1 || w[0] != 5 {
		t.Errorf("port 3: Words = %v, want [5]", w)
	}

	// Appending beyond the MsgWords capacity must panic.
	out.Append(3, 6)
	out.Append(3, 7)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Append beyond capacity did not panic")
			}
		}()
		out.Append(3, 8)
	}()

	// Reset clears every staged message.
	out.Reset()
	for port := 0; port < 4; port++ {
		if in.Has(port) {
			t.Errorf("port %d: message survived Reset", port)
		}
	}
}

// TestWireStatsCountSignals pins that zero-word signals are delivered
// messages: on C_5 every wireMix node stages a two-word message on port 0
// and a signal on port 1 in Start and in round 1, so both rounds deliver
// 5 × 2 messages.
func TestWireStatsCountSignals(t *testing.T) {
	in := mustInstance(t, graph.Cycle(5))
	res, err := RunMessage(in, wireMix{rounds: 2}, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Rounds: 2, Messages: 20}); res.Stats != want {
		t.Errorf("Stats %+v, want %+v", res.Stats, want)
	}
}

// TestWireBlockSplitting runs a wire-native algorithm over a lane vector
// wider than one slab block and pins per-lane equivalence with the
// pooled engine (the wire counterpart of TestBatchMessageBlocking).
func TestWireBlockSplitting(t *testing.T) {
	g := graph.Cycle(4000) // 8000 slots: 2-word wire messages split 8 lanes
	in := mustInstance(t, g)
	plan, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	bt := plan.NewBatch(8)
	algo := wireMix{rounds: 2}
	if lanes := bt.msgLanesFor(algo); lanes >= 8 {
		t.Fatalf("fixture too small: block %d does not split 8 lanes", lanes)
	}
	space := localrand.NewTapeSpace(83)
	draws := drawRange(space, 0, 8)
	results, err := bt.Run(in, algo, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	one := plan.NewBatch(1)
	for b := range draws {
		want, err := runLane(one, in, algo, &draws[b], RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		expectSameResult(t, fmt.Sprintf("blocked lane %d", b), want, results[b])
	}
}

// TestWireOutputsStable pins that outputs survive the engine's
// no-retention cleanup: output bytes must remain valid after the next
// run reuses the batch.
func TestWireOutputsStable(t *testing.T) {
	in := mustInstance(t, graph.Cycle(8))
	plan := MustPlan(in.G)
	one := plan.NewBatch(1)
	space := localrand.NewTapeSpace(85)
	d0 := space.Draw(0)
	first, err := runLane(one, in, wireMix{rounds: 3}, &d0, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([][]byte, first.Y.Len())
	for v := range first.Y.Len() {
		snapshot[v] = bytes.Clone(first.Y.At(v))
	}
	d1 := space.Draw(1)
	if _, err := runLane(one, in, wireMix{rounds: 3}, &d1, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for v := range first.Y.Len() {
		if !bytes.Equal(first.Y.At(v), snapshot[v]) {
			t.Fatalf("node %d: output mutated by a later run", v)
		}
	}
}
