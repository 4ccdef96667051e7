package local

import (
	"errors"
	"fmt"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// TestShardedBatchClampsShards pins the shard clamp of NewShardedBatch:
// a request above the graph's node count reaches the provider as the
// node count, and the default provider builds that many shards.
func TestShardedBatchClampsShards(t *testing.T) {
	plan := MustPlan(graph.Cycle(5))
	asked := 0
	record := func(p *Plan, width, shards int) (*Sharded, error) {
		asked = shards
		return p.NewSharded(width, shards)
	}
	bt := plan.NewShardedBatch(2, 99, record)
	if asked != 5 {
		t.Fatalf("provider asked for %d shards, want the clamp 5", asked)
	}
	if bt.sh == nil || bt.sh.NumShards() != 5 {
		t.Fatalf("batch holds %v, want a 5-shard executor", bt.sh)
	}
	if def := plan.NewShardedBatch(2, 99, nil); def.sh == nil || def.sh.NumShards() != 5 {
		t.Fatalf("default provider built %v, want a 5-shard executor", def.sh)
	}
}

// TestShardedBatchPlainWithoutShards pins that shards ≤ 1 — asked for,
// or clamped to on a one-node graph — builds no Sharded and never calls
// the provider.
func TestShardedBatchPlainWithoutShards(t *testing.T) {
	never := func(*Plan, int, int) (*Sharded, error) {
		t.Fatal("provider called for an unsharded batch")
		return nil, nil
	}
	plan := MustPlan(graph.Cycle(6))
	for _, shards := range []int{-1, 0, 1} {
		if bt := plan.NewShardedBatch(3, shards, never); bt.sh != nil || bt.Width() != 3 {
			t.Fatalf("shards %d: sharded %v width %d, want a plain width-3 batch", shards, bt.sh, bt.Width())
		}
	}
	if bt := MustPlan(graph.Path(1)).NewShardedBatch(3, 4, never); bt.sh != nil {
		t.Fatal("a one-node graph built a Sharded")
	}
}

// TestShardedBatchRefusedProvider pins the fallback: a refusing
// provider leaves a plain batch whose Results are byte-identical to a
// plain batch's and to a sharded batch's, for random and deterministic
// lanes.
func TestShardedBatchRefusedProvider(t *testing.T) {
	g := graph.Cycle(16)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	refuse := func(*Plan, int, int) (*Sharded, error) { return nil, errors.New("pool busy") }
	refused := plan.NewShardedBatch(3, 2, refuse)
	if refused.sh != nil {
		t.Fatal("a refusing provider left a Sharded on the batch")
	}
	sharded := plan.NewShardedBatch(3, 2, nil)
	if sharded.sh == nil {
		t.Fatal("the default provider built no Sharded")
	}
	draws := drawRange(localrand.NewTapeSpace(55), 0, 3)
	for _, bt := range []*Batch{refused, sharded} {
		want, err := plan.NewBatch(3).Run(in, wireMix{rounds: 4}, draws, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := bt.Run(in, wireMix{rounds: 4}, draws, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for b := range draws {
			expectSameResult(t, fmt.Sprintf("sharded=%v lane %d", bt.sh != nil, b), want[b], got[b])
		}
		want, err = plan.NewBatch(3).RunInstances([]*lang.Instance{in, in}, floodMin{t: 3}, nil, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err = bt.RunInstances([]*lang.Instance{in, in}, floodMin{t: 3}, nil, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for b := range got {
			expectSameResult(t, fmt.Sprintf("sharded=%v det lane %d", bt.sh != nil, b), want[b], got[b])
		}
	}
}

// TestShardedBatchSetFaultReachesShards pins that a batch's default
// fault plan arms every shard window batch of its Sharded, whether
// SetFault runs before the Sharded is attached or after, and that the
// faulty lanes match a faulty plain batch.
func TestShardedBatchSetFaultReachesShards(t *testing.T) {
	g := graph.Cycle(24)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	fp := &FaultPlan{Seed: 3, Drop: 0.3}
	draws := drawRange(localrand.NewTapeSpace(55), 0, 4)
	ref := plan.NewBatch(4)
	ref.SetFault(fp)
	want, err := ref.Run(in, wireMix{rounds: 5}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := plan.NewBatch(4).Run(in, wireMix{rounds: 5}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(clean[0].Stats) == fmt.Sprint(want[0].Stats) {
		t.Fatal("fixture: the fault plan changes nothing")
	}

	after := plan.NewShardedBatch(4, 2, nil)
	after.SetFault(fp)
	before := plan.NewBatch(4)
	before.SetFault(fp)
	sh, err := plan.NewSharded(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	before.attach(sh)
	for name, bt := range map[string]*Batch{"after attach": after, "before attach": before} {
		got, err := bt.Run(in, wireMix{rounds: 5}, draws, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range bt.sh.shards {
			if s.bt.fault != fp {
				t.Errorf("%s: shard %d window batch armed %v, want the batch's plan", name, i, s.bt.fault)
			}
		}
		for b := range draws {
			expectSameResult(t, fmt.Sprintf("%s lane %d", name, b), want[b], got[b])
		}
	}
}

// TestShardedBatchClose pins Close: it closes the Sharded's installed
// transport exactly once, is safe to repeat, leaves a working plain
// batch, and is a no-op on a batch that never held a Sharded.
func TestShardedBatchClose(t *testing.T) {
	g := graph.Cycle(12)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	closed := 0
	provide := func(p *Plan, width, shards int) (*Sharded, error) {
		sh, err := p.NewSharded(width, shards)
		if err == nil {
			sh.SetTransport(nil, func() { closed++ })
		}
		return sh, err
	}
	bt := plan.NewShardedBatch(2, 3, provide)
	if bt.sh == nil {
		t.Fatal("provider built no Sharded")
	}
	for i := 0; i < 3; i++ {
		if err := bt.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if closed != 1 {
		t.Fatalf("transport closed %d times, want exactly 1", closed)
	}
	if bt.sh != nil {
		t.Fatal("Close left the Sharded attached")
	}
	draws := drawRange(localrand.NewTapeSpace(55), 0, 2)
	want, err := plan.NewBatch(2).Run(in, tapeXOR{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := bt.Run(in, tapeXOR{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for b := range draws {
		expectSameResult(t, fmt.Sprintf("after Close lane %d", b), want[b], got[b])
	}
	if err := plan.NewBatch(2).Close(); err != nil {
		t.Fatalf("plain batch Close: %v", err)
	}
}
