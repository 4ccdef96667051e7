package localrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a, b := NewSource(42), NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at step %d", i)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a, b := NewSource(1), NewSource(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds in 64 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewSource(9)
	for _, n := range []int{1, 2, 3, 7, 100} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Intn(0)")
		}
	}()
	NewSource(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	s := NewSource(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d count %d too far from expectation %v", v, c, want)
		}
	}
}

func TestBernoulli(t *testing.T) {
	s := NewSource(13)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency %v", p)
	}
}

func TestDrawReproducible(t *testing.T) {
	ts := NewTapeSpace(100)
	d := ts.Draw(5)
	t1 := d.Tape(77)
	t2 := d.Tape(77)
	for i := 0; i < 50; i++ {
		if t1.Uint64() != t2.Uint64() {
			t.Fatalf("same (draw, node) tapes diverged at step %d", i)
		}
	}
}

func TestDrawsIndependent(t *testing.T) {
	ts := NewTapeSpace(100)
	a := ts.Draw(1).Tape(77)
	b := ts.Draw(2).Tape(77)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between draws in 64 steps", same)
	}
}

func TestNodesIndependent(t *testing.T) {
	d := NewTapeSpace(3).Draw(0)
	a := d.Tape(1)
	b := d.Tape(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between node tapes in 64 steps", same)
	}
}

func TestFixSigmaSemantics(t *testing.T) {
	// The Claim 4 conditioning: fixing σ of one space while varying draws
	// of another must replay σ's bits exactly.
	cSpace := NewTapeSpace(1)
	dSpace := NewTapeSpace(2)
	sigma := cSpace.Draw(123)
	ref := sigma.Tape(5).Uint64()
	for i := uint64(0); i < 10; i++ {
		_ = dSpace.Draw(i).Tape(5).Uint64() // unrelated draws
		if got := sigma.Tape(5).Uint64(); got != ref {
			t.Fatalf("fixed σ changed after decider draw %d", i)
		}
	}
}

func TestDeriveChangesStream(t *testing.T) {
	d := NewTapeSpace(9).Draw(0)
	a := d.Tape(1).Uint64()
	b := d.Derive(1).Tape(1).Uint64()
	if a == b {
		t.Error("Derive(1) did not change the stream")
	}
	if d.Derive(2).Tape(1).Uint64() == b {
		t.Error("Derive(1) and Derive(2) collide")
	}
}

// Property: tapes are pure functions of (space seed, draw index, node id).
func TestTapePurityProperty(t *testing.T) {
	f := func(seed, draw uint64, node int64) bool {
		if node < 0 {
			node = -node
		}
		x := NewTapeSpace(seed).Draw(draw).Tape(node).Uint64()
		y := NewTapeSpace(seed).Draw(draw).Tape(node).Uint64()
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTapeIntoMatchesTape(t *testing.T) {
	d := NewTapeSpace(21).Draw(4)
	var slab Tape
	for _, id := range []int64{1, 7, 1 << 40} {
		d.TapeInto(&slab, id)
		fresh := d.Tape(id)
		for i := 0; i < 8; i++ {
			if got, want := slab.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("id %d word %d: TapeInto stream %x, Tape stream %x", id, i, got, want)
			}
		}
	}
	// Reseeding mid-stream must rewind to the start of the new tape.
	d.TapeInto(&slab, 7)
	if slab.Uint64() != d.Tape(7).Uint64() {
		t.Error("TapeInto after partial consumption did not rewind")
	}
}

func TestTapeVecIntoMatchesTapeInto(t *testing.T) {
	d := NewTapeSpace(33).Draw(9)
	ids := []int64{1, 7, 42, 1 << 40}
	row := make([]Tape, len(ids))
	// Consume a little first: the vectorized reseed must rewind lanes.
	for i := range row {
		row[i].Uint64()
	}
	d.TapeVecInto(row, ids)
	for i, id := range ids {
		var want Tape
		d.TapeInto(&want, id)
		for w := 0; w < 4; w++ {
			if got, exp := row[i].Uint64(), want.Uint64(); got != exp {
				t.Fatalf("lane %d (id %d) word %d: TapeVecInto stream %x, TapeInto stream %x", i, id, w, got, exp)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("TapeVecInto with mismatched lengths did not panic")
		}
	}()
	d.TapeVecInto(row[:2], ids)
}

// TestDrawSeedRoundTrip pins the wire form of a draw: DrawFromSeed(σ.Seed())
// reproduces σ's per-node tapes bit for bit — what lets a shard-worker
// process reconstruct the orchestrator's randomness exactly.
func TestDrawSeedRoundTrip(t *testing.T) {
	space := NewTapeSpace(17)
	for idx := uint64(0); idx < 8; idx++ {
		want := space.Draw(idx)
		got := DrawFromSeed(want.Seed())
		for _, id := range []int64{0, 1, 7, 1 << 40} {
			a, b := want.Tape(id), got.Tape(id)
			for w := 0; w < 8; w++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("draw %d id %d word %d: %x vs %x after seed round-trip", idx, id, w, x, y)
				}
			}
		}
	}
}

// TestIntnAcceptMatchesLimit pins Intn's rejection rule: the division-free
// fast accept plus its fallback decides exactly v < MaxUint64 −
// MaxUint64%bound, on the bottom and top 4096 draws and on random ones,
// for bounds 1…1000, 2⁶³±1 and MaxUint64.
func TestIntnAcceptMatchesLimit(t *testing.T) {
	bounds := []uint64{1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64}
	for b := uint64(1); b <= 1000; b++ {
		bounds = append(bounds, b)
	}
	rnd := NewSource(99)
	for _, bound := range bounds {
		limit := uint64(math.MaxUint64) - math.MaxUint64%bound
		check := func(v uint64) {
			if got, want := intnAccept(v, bound), v < limit; got != want {
				t.Fatalf("bound %d draw %d: accept %v, want %v", bound, v, got, want)
			}
		}
		for i := uint64(0); i < 4096; i++ {
			check(i)
			check(math.MaxUint64 - i)
		}
		for i := 0; i < 256; i++ {
			check(rnd.Uint64())
		}
	}
}

// TestFaultRowMatchesWord pins the hoisted prefix: a row's word at c is
// the full four-step walk over (channel, a, b, c).
func TestFaultRowMatchesWord(t *testing.T) {
	ft := NewFaultTape(23)
	for ch := uint64(0); ch < 3; ch++ {
		for a := uint64(0); a < 4; a++ {
			for b := uint64(0); b < 4; b++ {
				row := ft.Row(ch, a, b)
				for _, c := range []uint64{0, 1, 5, 1 << 40, math.MaxUint64} {
					h := mix64(ft.seed + splitmixGamma*(ch+1))
					h = mix64(h + splitmixGamma*(a+1))
					h = mix64(h + splitmixGamma*(b+1))
					want := mix64(h + splitmixGamma*(c+1))
					if got := row.Word(c); got != want {
						t.Fatalf("(%d,%d,%d,%d): row word %x, want %x", ch, a, b, c, got, want)
					}
				}
			}
		}
	}
}

// TestThresholdMatchesFloatCompare pins the integer Bernoulli: for a
// 53-bit x, x < Threshold(p) decides exactly as the float compare
// x/2⁵³ < p (the p ≤ 0 guard included) — at the edges of x's range,
// next to p·2⁵³ itself, and on random pairs, for p across every scale.
func TestThresholdMatchesFloatCompare(t *testing.T) {
	float := func(p float64, x uint64) bool { return p > 0 && float64(x)/(1<<53) < p }
	ps := []float64{
		math.NaN(), math.Inf(-1), -1, 0, math.SmallestNonzeroFloat64, 1e-300, 1e-17,
		1.0 / (1 << 53), 3.0 / (1 << 54), 1e-9, 0.01, 0.05, 0.1, 0.15, 1.0 / 3, 0.5,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 2, math.Inf(1),
	}
	rnd := NewSource(7)
	for i := 0; i < 200; i++ {
		ps = append(ps, rnd.Float64(), math.Ldexp(rnd.Float64(), -int(rnd.Intn(60))))
	}
	const top = 1<<53 - 1
	for _, p := range ps {
		thr := Threshold(p)
		xs := []uint64{0, 1, 2, top - 1, top}
		if p > 0 && p < 1 {
			mid := uint64(p * (1 << 53))
			for d := uint64(0); d < 3; d++ {
				xs = append(xs, mid+d, mid-d)
			}
		}
		for i := 0; i < 64; i++ {
			xs = append(xs, rnd.Uint64()>>11)
		}
		for _, x := range xs {
			if x > top {
				continue
			}
			if got, want := x < thr, float(p, x); got != want {
				t.Fatalf("p %v x %d: integer compare %v, float compare %v", p, x, got, want)
			}
		}
	}
}
