package local

import (
	"fmt"

	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// laneLedger is the one owner of a run's per-lane round accounting, for
// every execution shape: the unsharded round loop sums its worker rows
// into it after each pass, the shard orchestrator sums its shard reports
// the same way. It holds the round budget, the halting consensus (a lane
// stops once all of its nodes finished), and the lanes' Stats.Rounds and
// Stats.Messages, so no two shapes can disagree on a round count. It also
// keeps the double-buffered output arena a lane vector's blocks share.
type laneLedger struct {
	n         int
	budget    int // last round a run may execute
	stopAfter int // RunOptions.StopAfter when positive, else 0
	live      int // lanes still running
	alive     []bool
	notDone   []int // per-lane count of nodes still running
	rounds    []int
	msgs      []int64
	outs      arenaPair
}

// begin opens a run of k lanes on n nodes: every lane live with all n
// nodes running, no rounds, no messages, and the round budget of opts —
// MaxRounds (2n+64 when zero), or exactly StopAfter rounds when that is
// positive.
func (l *laneLedger) begin(k, n int, opts RunOptions) {
	l.n = n
	l.budget = opts.MaxRounds
	if l.budget == 0 {
		l.budget = 2*n + 64
	}
	l.stopAfter = max(opts.StopAfter, 0)
	if l.stopAfter > 0 {
		l.budget = l.stopAfter
	}
	l.live = k
	l.alive = sliceFor(l.alive, k)
	l.notDone = sliceFor(l.notDone, k)
	l.rounds = sliceFor(l.rounds, k)
	l.msgs = sliceFor(l.msgs, k)
	for b := 0; b < k; b++ {
		l.alive[b] = true
		l.notDone[b] = n
		l.rounds[b] = 0
		l.msgs[b] = 0
	}
}

// admit reports whether round may run: ErrNoHalt once the budget is
// spent.
func (l *laneLedger) admit(round int) error {
	if round > l.budget {
		return fmt.Errorf("%w: %d rounds on %d nodes", ErrNoHalt, l.budget, l.n)
	}
	return nil
}

// add credits one worker's or one shard's row of the round just run:
// msgs[b] messages delivered to lane b, fins[b] of its nodes newly
// finished.
func (l *laneLedger) add(msgs []int64, fins []int) {
	for b := range l.alive {
		l.msgs[b] += msgs[b]
		l.notDone[b] -= fins[b]
	}
}

// endRound closes round once every row is added: each live lane counts
// it, and a lane whose nodes have all finished stops. It reports whether
// the run is over — no lane live, or StopAfter rounds run.
func (l *laneLedger) endRound(round int) bool {
	for b, a := range l.alive {
		if !a {
			continue
		}
		l.rounds[b] = round
		if l.notDone[b] == 0 {
			l.alive[b] = false
			l.live--
		}
	}
	return l.live == 0 || round == l.stopAfter
}

// results points res and out at the run's lanes: lane b's outputs are
// cols[b], its Stats the ledger's counts.
func (l *laneLedger) results(cols []lang.Column, res []Result, out []*Result) {
	for b := range res {
		res[b] = Result{
			Y:     cols[b],
			Stats: Stats{Rounds: l.rounds[b], Messages: l.msgs[b]},
		}
		out[b] = &res[b]
	}
}

// runBlocks drives a lane vector through run in blocks of at most block
// lanes, one round loop per block (lanes are independent, so any split
// is byte-identical). all carries the vector's lane instances; run seeds
// each block's tapes for the nodes it steps and collects the block's
// outputs into the store it is handed. The whole vector's outputs land
// in one arena buffer, so the arena alternates per top-level run, not
// per block — a multi-block run never clobbers its own earlier blocks.
func (l *laneLedger) runBlocks(n, block int, all laneSrc, k int, draws []localrand.Draw,
	run func(src laneSrc, k int, draws []localrand.Draw, out *outCols) error) ([]*Result, error) {
	ar := l.outs.next(k, n)
	for lo := 0; lo < k; lo += block {
		hi := min(lo+block, k)
		var chunk []localrand.Draw
		if draws != nil {
			chunk = draws[lo:hi]
		}
		src := all
		if all.ins != nil {
			src.ins = all.ins[lo:hi]
		}
		if err := run(src, hi-lo, chunk, &ar.out); err != nil {
			return nil, err
		}
		ar.out.seal(ar.cols[lo:hi])
		l.results(ar.cols[lo:hi], ar.res[lo:hi], ar.ptr[lo:hi])
	}
	return ar.ptr[:k], nil
}

// seedTapes reseeds the tape rows of nodes [lo, hi) for the lanes of
// draws — row b holds lane b's tapes under draws[b], addressed by src's
// lane instances — reusing buf's backing array, and points src at them.
// Deterministic vectors (nil draws) leave src tape-free. Rows are sized
// by the block, not the batch width: the first block of a vector is its
// widest.
func seedTapes(buf []localrand.Tape, lo, hi int, draws []localrand.Draw, src *laneSrc) []localrand.Tape {
	if draws == nil {
		return buf
	}
	w := hi - lo
	buf = sliceFor(buf, len(draws)*w)
	for b, d := range draws {
		d.TapeVecInto(buf[b*w:(b+1)*w], src.instance(b).ID[lo:hi])
	}
	src.tapes, src.tlo, src.tn = buf, lo, w
	return buf
}
