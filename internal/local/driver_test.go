package local

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// fakeConn is a scripted shardConn. By default it answers like a shard
// whose every node finishes in round 1 and whose outputs name (shard,
// lane, node), with an extra byte at odd nodes when ragged; round and
// finish, when set, replace its answers. It counts the commands it was
// asked to carry.
type fakeConn struct {
	shard, lo, hi int
	k             int
	ragged        bool
	beginErr      error
	round         func(cmd cmdMsg) (shardReport, error)
	finish        func(cmd cmdMsg) (shardReport, error)
	execs         int
}

func (c *fakeConn) begin(run *shardRun) error {
	c.k = run.k
	return c.beginErr
}

func (c *fakeConn) exec(cmd cmdMsg) (shardReport, error) {
	c.execs++
	if cmd.Run && c.round != nil {
		return c.round(cmd)
	}
	if !cmd.Run && c.finish != nil {
		return c.finish(cmd)
	}
	return c.answer(cmd), nil
}

// answer is the well-formed report of cmd.
func (c *fakeConn) answer(cmd cmdMsg) shardReport {
	nwin := c.hi - c.lo
	switch {
	case cmd.Run:
		fins := make([]int, c.k)
		for b := range fins {
			fins[b] = nwin
		}
		return shardReport{msgs: make([]int64, c.k), fins: fins}
	case cmd.Collect:
		out := make([][]byte, c.k*nwin)
		for b := 0; b < c.k; b++ {
			for v := c.lo; v < c.hi; v++ {
				out[b*nwin+v-c.lo] = c.entry(b, v)
			}
		}
		return shardReport{out: wireColOf(lang.ColumnOf(out))}
	}
	return shardReport{}
}

// entry is the fake's output of lane b at node v.
func (c *fakeConn) entry(b, v int) []byte {
	if c.ragged && v%2 == 1 {
		return []byte{byte(c.shard), byte(b), byte(v), byte(v)}
	}
	return []byte{byte(c.shard), byte(b), byte(v)}
}

// fakeSharded is a two-shard executor over C_8 whose shards are fakes.
func fakeSharded(t testing.TB) (*Sharded, []*fakeConn) {
	t.Helper()
	s, err := MustPlan(graph.Cycle(8)).NewSharded(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fakes := make([]*fakeConn, len(s.shards))
	for i, sh := range s.shards {
		fakes[i] = &fakeConn{shard: i, lo: sh.lo, hi: sh.hi}
		s.conns[i] = fakes[i]
	}
	return s, fakes
}

// TestShardDriverContract pins the orchestrator's side of the shard
// protocol against a fake carrier: every malformed or failed answer ends
// the run with its documented error (a broken plain finish after an
// earlier failure adds none of its own), every driver answers each
// command exactly once and exits, and well-formed collects land in the
// right output cells.
func TestShardDriverContract(t *testing.T) {
	broken := errors.New("control stream reset")
	cases := []struct {
		name    string
		script  func(f []*fakeConn)
		want    string // "" = no error
		absent  string // must not appear in the error
		execs   [2]int // commands each fake carried
		outputs bool   // check the collected outputs
	}{
		{name: "clean", script: func([]*fakeConn) {}, execs: [2]int{2, 2}, outputs: true},
		{
			name: "round report with k-1 lanes",
			script: func(f []*fakeConn) {
				f[1].round = func(cmd cmdMsg) (shardReport, error) {
					rep := f[1].answer(cmd)
					rep.msgs, rep.fins = rep.msgs[:f[1].k-1], rep.fins[:f[1].k-1]
					return rep, nil
				}
			},
			want:  "shard 1 round report carries 1/1 lanes, want 2",
			execs: [2]int{2, 2},
		},
		{
			name: "collect of the wrong size",
			script: func(f []*fakeConn) {
				f[0].finish = func(cmd cmdMsg) (shardReport, error) {
					rep := f[0].answer(cmd)
					rep.out.Data, rep.out.N = rep.out.Data[3:], rep.out.N-1
					return rep, nil
				}
			},
			want:  "shard 0 collected 7 outputs, want 8",
			execs: [2]int{2, 2},
		},
		{
			name: "collect column with ends out of order",
			script: func(f []*fakeConn) {
				f[0].ragged = true
				f[0].finish = func(cmd cmdMsg) (shardReport, error) {
					rep := f[0].answer(cmd)
					rep.out.Ends[2], rep.out.Ends[3] = rep.out.Ends[3], rep.out.Ends[2]
					return rep, nil
				}
			},
			want:  "shard 0 collect: lang: malformed output column: entry 3 ends at",
			execs: [2]int{2, 2},
		},
		{
			name: "collect column whose width does not fill its slab",
			script: func(f []*fakeConn) {
				f[1].finish = func(cmd cmdMsg) (shardReport, error) {
					rep := f[1].answer(cmd)
					rep.out.W = 2
					return rep, nil
				}
			},
			want:  "shard 1 collect: lang: malformed output column: 24 bytes for 8 entries of width 2",
			execs: [2]int{2, 2},
		},
		{
			name:    "mixed widths across shards",
			script:  func(f []*fakeConn) { f[1].ragged = true },
			execs:   [2]int{2, 2},
			outputs: true,
		},
		{
			name:    "mixed widths within both shards",
			script:  func(f []*fakeConn) { f[0].ragged, f[1].ragged = true, true },
			execs:   [2]int{2, 2},
			outputs: true,
		},
		{
			name: "worker panic string",
			script: func(f []*fakeConn) {
				f[1].round = func(cmdMsg) (shardReport, error) {
					return shardReport{panicked: workerPanic("detonated")}, nil
				}
			},
			want:  "worker 1 shard panic: detonated",
			execs: [2]int{2, 1}, // a panicked shard gets no finish
		},
		{
			name: "broken stream on a collecting finish",
			script: func(f []*fakeConn) {
				f[1].finish = func(cmdMsg) (shardReport, error) { return shardReport{}, broken }
			},
			want:  "control stream reset",
			execs: [2]int{2, 2},
		},
		{
			name: "broken stream on a plain finish after an earlier failure",
			script: func(f []*fakeConn) {
				f[0].round = func(cmdMsg) (shardReport, error) {
					return shardReport{err: errors.New("earlier failure")}, nil
				}
				f[1].finish = func(cmdMsg) (shardReport, error) { return shardReport{}, broken }
			},
			want:   "earlier failure",
			absent: "control stream reset",
			execs:  [2]int{2, 2},
		},
		{
			name:   "broken stream at begin",
			script: func(f []*fakeConn) { f[0].beginErr = broken },
			want:   "control stream reset",
			execs:  [2]int{0, 2}, // the broken carrier is never asked again
		},
	}
	start := runtime.NumGoroutine()
	draws := drawRange(localrand.NewTapeSpace(7), 0, 2)
	for _, c := range cases {
		s, fakes := fakeSharded(t)
		c.script(fakes)
		in := mustInstance(t, s.plan.g)
		res, err := s.Run(in, floodMin{t: 2}, draws, RunOptions{})
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: run failed: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: run error %v, want %q", c.name, err, c.want)
		case c.absent != "" && strings.Contains(err.Error(), c.absent):
			t.Errorf("%s: run error %v names %q", c.name, err, c.absent)
		}
		if got := [2]int{fakes[0].execs, fakes[1].execs}; got != c.execs {
			t.Errorf("%s: fakes carried %v commands, want %v", c.name, got, c.execs)
		}
		if n := len(s.reports); n != 0 {
			t.Errorf("%s: %d reports left over: a driver answered a command twice", c.name, n)
		}
		if c.outputs {
			for b, r := range res {
				if r.Y.Len() != s.plan.g.N() {
					t.Fatalf("%s: lane %d has %d outputs", c.name, b, r.Y.Len())
				}
				for v := range r.Y.Len() {
					y := r.Y.At(v)
					shard := 0
					if v >= s.shards[1].lo {
						shard = 1
					}
					if want := fakes[shard].entry(b, v); !reflect.DeepEqual(y, want) {
						t.Errorf("%s: lane %d node %d collected %v, want %v", c.name, b, v, y, want)
					}
				}
			}
		}
	}
	// Every driver exits once its finish (or panic) is answered.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Errorf("%d goroutines after the runs, %d before: a shard driver leaked", n, start)
	}
}

// TestFaultPlanFlattenRoundTrip pins the fault plan's control-stream
// form: flattening a block and decoding it on the worker side rebuilds
// the plan field for field, surgery included.
func TestFaultPlanFlattenRoundTrip(t *testing.T) {
	g := graph.Cycle(8)
	in := mustInstance(t, g)
	want := &FaultPlan{
		Seed: 91, Drop: 0.25, Delay: 0.125, CrashP: 0.5, CrashFrom: 3, CrashUntil: 6,
		Surgery: []EdgeCut{{Round: 2, U: 0, Z: 1}, {Round: 5, U: 4, Z: 3}},
	}
	draws := drawRange(localrand.NewTapeSpace(11), 0, 3)
	run := shardRun{k: 3, block: 3, src: laneSrc{shared: in}, draws: draws, fault: want}
	got, err := decodeRun(g, floodMin{t: 2}, flattenRun(&run))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.fault, want) {
		t.Fatalf("fault plan round trip: got %+v, want %+v", got.fault, want)
	}
	for b, d := range got.draws {
		if d.Seed() != draws[b].Seed() {
			t.Fatalf("lane %d: draw seed %d, want %d", b, d.Seed(), draws[b].Seed())
		}
	}
	if got.k != 3 || got.block != 3 {
		t.Fatalf("decoded k %d block %d, want 3 and 3", got.k, got.block)
	}
}

// FuzzDecodeRun feeds arbitrary run shapes to the worker-side decode of
// a fixed C_8 two-shard job: a run either fails to decode, or shard 0's
// handler begins it without panicking (begin may still reject k against
// the width or the block against the layout, which only it knows).
// Seeds: testdata/fuzz/FuzzDecodeRun plus the well-formed run below.
func FuzzDecodeRun(f *testing.F) {
	g := graph.Cycle(8)
	s, err := MustPlan(g).NewSharded(4, 2)
	if err != nil {
		f.Fatal(err)
	}
	sh := s.shards[0]
	wa := floodMin{t: 2}
	f.Add(int32(2), int32(2), []byte{0, 0}, uint8(2), true, []byte{2, 0, 1}, uint8(8), uint8(8))
	f.Fuzz(func(t *testing.T, k, block int32, lanes []byte, nseeds uint8, fault bool, cuts []byte, nid, nx uint8) {
		rs := &runSpec{K: k, Block: block, HasDraws: nseeds > 0, HasFault: fault, FaultSeed: 5, FaultDrop: 0.5}
		for _, l := range lanes {
			rs.Lane = append(rs.Lane, int32(int8(l)))
		}
		for i := 0; i < int(nseeds); i++ {
			rs.Draws = append(rs.Draws, uint64(i))
		}
		for _, c := range cuts {
			rs.FaultCuts = append(rs.FaultCuts, int64(int8(c)))
		}
		// Two instances: the fuzzed shape and a well-formed one.
		inst := instPayload{X: make([][]byte, nx)}
		for i := 0; i < int(nid); i++ {
			inst.ID = append(inst.ID, int64(i+1))
		}
		ok := instPayload{X: make([][]byte, 8), ID: []int64{1, 2, 3, 4, 5, 6, 7, 8}}
		rs.Insts = []instPayload{ok, inst}
		run, err := decodeRun(g, wa, rs)
		if err != nil {
			return
		}
		sh.begin(&run)
		if sh.panicked != nil {
			t.Fatalf("begin panicked on a decoded run: %v", sh.panicked)
		}
		sh.exec(cmdMsg{})
	})
}

// FuzzAcceptColumn feeds arbitrary collect columns to the orchestrator's
// check: shard 0 of a two-shard C_8 executor (nodes [0, 4)) reports a
// column in fixed form (Ends nil) or offsets form (ends from fuzzed
// little-endian words), with any slab, entry count and width, for a
// block of 1 or 2 lanes. Sharded.accept must turn every malformed column
// into an error, never a panic. A column it accepts must hold exactly
// k·4 entries, and gathering it next to a well-formed shard 1 column
// must give k lanes of 8 outputs whose first 4 read shard 0's entries
// unchanged. Seeds: testdata/fuzz/FuzzAcceptColumn plus the well-formed
// column below.
func FuzzAcceptColumn(f *testing.F) {
	s, _ := fakeSharded(f)
	lo, hi := s.shards[0].lo, s.shards[0].hi
	nwin, n := hi-lo, s.plan.g.N()
	f.Add(uint8(1), true, []byte("abcdefgh"), []byte(nil), int32(8), int32(1))
	f.Fuzz(func(t *testing.T, lanes uint8, fixed bool, data, ends []byte, count, width int32) {
		k := 1 + int(lanes%2)
		wc := wireCol{Data: data, N: int(count), W: int(width)}
		if !fixed {
			wc.Ends = []int32{}
			for i := 0; i+4 <= len(ends); i += 4 {
				wc.Ends = append(wc.Ends, int32(binary.LittleEndian.Uint32(ends[i:])))
			}
		}
		s.got = make([]lang.Column, len(s.shards))
		if err := s.accept(&shardReport{from: 0, out: wc}, cmdMsg{Collect: true}, k); err != nil {
			return
		}
		got := s.got[0]
		if got.Len() != k*nwin {
			t.Fatalf("accepted a column of %d entries for %d lanes of %d nodes", got.Len(), k, nwin)
		}
		rows := make([][]byte, k*(n-hi))
		for i := range rows {
			rows[i] = []byte{byte(i)}
		}
		s.got[1] = lang.ColumnOf(rows)
		var out outCols
		out.begin(k, n)
		s.gather(&out, k)
		cols := make([]lang.Column, k)
		out.seal(cols)
		for b, c := range cols {
			if c.Len() != n {
				t.Fatalf("lane %d gathered %d outputs, want %d", b, c.Len(), n)
			}
			for v := lo; v < hi; v++ {
				if string(c.At(v)) != string(got.At(b*nwin+v-lo)) {
					t.Fatalf("lane %d node %d gathered %x, shard reported %x", b, v, c.At(v), got.At(b*nwin+v-lo))
				}
			}
		}
	})
}
