package exp

import (
	"strings"
	"sync/atomic"
	"testing"

	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/report"
)

// TestAllExperimentsQuick runs every registered experiment in quick mode
// and requires every programmatic check to pass — the repository-level
// assertion that the measured shapes match the paper's claims.
func TestAllExperimentsQuick(t *testing.T) {
	exps := All()
	if len(exps) != 17 {
		t.Fatalf("registered experiments = %d, want 17", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID(), func(t *testing.T) {
			t.Parallel()
			res, err := e.Run(report.Config{Quick: true, Seed: 7})
			if err != nil {
				t.Fatalf("%s: %v", e.ID(), err)
			}
			if len(res.Tables) == 0 {
				t.Errorf("%s produced no tables", e.ID())
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s check failed: %s — %s", e.ID(), c.Name, c.Detail)
				}
			}
			// Rendering must not panic and must mention the ID somewhere.
			var sb strings.Builder
			res.Render(&sb)
			if !strings.Contains(sb.String(), e.ID()) {
				t.Errorf("%s: rendered output does not mention the experiment id", e.ID())
			}
		})
	}
}

// TestShardedExperimentsMatchUnsharded runs the sharded-capable
// experiments (E2 and E10, the two message-construction trial loops)
// with Config.Shards set and requires the rendered tables to match the
// unsharded run byte for byte: sharding is an execution topology, never
// a result change.
func TestShardedExperimentsMatchUnsharded(t *testing.T) {
	for _, id := range []string{"E2", "E10"} {
		e, ok := report.ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		render := func(shards int) string {
			res, err := e.Run(report.Config{Quick: true, Seed: 7, Shards: shards})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", id, shards, err)
			}
			var sb strings.Builder
			res.Render(&sb)
			return sb.String()
		}
		want := render(1)
		for _, shards := range []int{2, 3} {
			if got := render(shards); got != want {
				t.Errorf("%s: sharded (%d) output differs from unsharded:\n--- unsharded ---\n%s\n--- sharded ---\n%s",
					id, shards, want, got)
			}
		}
	}
}

// TestTrialLoopsHonorConfig pins that the experiments whose sweeps run
// on batched trial workers build them from the run's Config: each must
// report its sweeps through Config.Progress, one (0, total) event per
// sweep, as the serve layer's progress stream expects.
func TestTrialLoopsHonorConfig(t *testing.T) {
	for _, id := range []string{"E3", "E5", "E6", "E11", "E12", "E14"} {
		t.Run(id, func(t *testing.T) {
			e, ok := report.ByID(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			var sweeps atomic.Int64
			cfg := report.Config{Quick: true, Seed: 7, Progress: func(done, total int) {
				if done == 0 && total > 0 {
					sweeps.Add(1)
				}
			}}
			if _, err := e.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if sweeps.Load() == 0 {
				t.Errorf("%s ran no sweep through Config.Progress", id)
			}
		})
	}
}

// TestExperimentMetadata checks the registry wiring.
func TestExperimentMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID() == "" || e.Title() == "" || e.PaperRef() == "" {
			t.Errorf("experiment %q has empty metadata", e.ID())
		}
		if seen[e.ID()] {
			t.Errorf("duplicate id %s", e.ID())
		}
		seen[e.ID()] = true
		if _, ok := report.ByID(strings.ToLower(e.ID())); !ok {
			t.Errorf("lookup failed for %s", e.ID())
		}
	}
	for _, id := range []string{"E1", "E5", "E15"} {
		if _, ok := report.ByID(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
}

// TestPlantedSaboteur pins the synthetic construction algorithm's
// behaviour: β=0 reproduces the planted coloring exactly; β=1 corrupts
// exactly the leader.
func TestPlantedSaboteur(t *testing.T) {
	in := plantedBlock(12, 1)
	draw := localrand.NewTapeSpace(1).Draw(0)
	clean := local.RunView(in, PlantedSaboteur{Beta: 0}, &draw)
	for v := range clean.Len() {
		y := clean.At(v)
		want := byte(v % 2)
		if len(y) != 1 || y[0] != want {
			t.Fatalf("node %d: clean output %v, want color %d", v, y, want)
		}
	}
	corrupted := local.RunView(in, PlantedSaboteur{Beta: 1}, &draw)
	if corrupted.At(0)[0] != corrupted.At(1)[0] {
		t.Error("β=1: leader did not copy its successor's color")
	}
	for v := 2; v < 11; v++ {
		if corrupted.At(v)[0] != byte(v%2) {
			t.Errorf("β=1: non-leader node %d changed color", v)
		}
	}
	// The planted block without corruption is a proper 2-coloring of the
	// even ring.
	l := lang.ProperColoring(3)
	ok, err := l.Contains(&lang.Config{G: in.G, X: in.X, Y: clean})
	if err != nil || !ok {
		t.Errorf("clean planted coloring not proper: ok=%v err=%v", ok, err)
	}
}
