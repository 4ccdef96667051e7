package construct

import (
	"bytes"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
)

func TestGreedyMISFromColoring(t *testing.T) {
	l := lang.MIS()
	// Feed a known proper coloring of C9 as input.
	g := graph.Cycle(9)
	x := make([][]byte, 9)
	for v := 0; v < 9; v++ {
		x[v] = lang.EncodeColor(v % 3)
	}
	// n=9 divisible by 3: v%3 proper around the wrap (8 -> 0: 2 vs 0).
	in := &lang.Instance{G: g, X: x, ID: ids.Consecutive(9)}
	y, err := (MessageConstruction{Algo: GreedyMISFromColoring{Q: 3}}).Run(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := l.Contains(&lang.Config{G: g, X: x, Y: y}); !ok {
		t.Fatal("greedy conversion did not produce a valid MIS")
	}
	// Color-0 nodes must all be in (first class joins unconditionally).
	for v := 0; v < 9; v += 3 {
		sel, _ := lang.DecodeSelected(y.At(v))
		if !sel {
			t.Errorf("color-0 node %d not selected", v)
		}
	}
}

func TestDeterministicRingMIS(t *testing.T) {
	l := lang.MIS()
	for _, n := range []int{3, 5, 16, 101, 256} {
		for seed := uint64(0); seed < 3; seed++ {
			id := ids.RandomPerm(n, seed)
			in := instanceOn(t, graph.Cycle(n), id)
			y, err := DeterministicRingMIS(63).Run(in, nil)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if ok, _ := l.Contains(outputConfig(in, y)); !ok {
				t.Fatalf("n=%d seed=%d: invalid deterministic MIS", n, seed)
			}
		}
	}
}

func TestDeterministicRingMISIsDeterministic(t *testing.T) {
	in := instanceOn(t, graph.Cycle(32), ids.RandomPerm(32, 4))
	y1, err1 := DeterministicRingMIS(63).Run(in, nil)
	y2, err2 := DeterministicRingMIS(63).Run(in, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for v := range y1.Len() {
		if !bytes.Equal(y1.At(v), y2.At(v)) {
			t.Fatalf("deterministic MIS differs across runs at node %d", v)
		}
	}
}

func TestDeterministicRingWeakColoring(t *testing.T) {
	l := lang.WeakColoring(2)
	for _, n := range []int{4, 9, 64} {
		in := instanceOn(t, graph.Cycle(n), ids.RandomPerm(n, 9))
		y, err := DeterministicRingWeakColoring(63).Run(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := l.Contains(outputConfig(in, y)); !ok {
			t.Fatalf("n=%d: invalid weak 2-coloring", n)
		}
	}
}

func TestGreedyMISPanicsOnBadInput(t *testing.T) {
	g := graph.Path(3)
	in := &lang.Instance{G: g, X: lang.EmptyInputs(3), ID: ids.Consecutive(3)}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for missing input coloring")
		}
	}()
	_, _ = (MessageConstruction{Algo: GreedyMISFromColoring{Q: 3}}).Run(in, nil)
}
