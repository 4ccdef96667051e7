package local

import (
	"fmt"

	"rlnc/internal/lang"
)

// outCols is the output store of one run: `lanes` lanes of n entries,
// lane-major, filled one lane block at a time and handed out as one
// lang.Column per lane. A block lands in fixed form when every output
// has the width of its first: entry (b, v) of the block at
// fix[(b·n+v)·w:], written in place by any number of workers. When an
// output of another width turns up, the block is refilled in offsets
// form instead: appended lane by lane, in node order, with lane-relative
// end offsets. Outputs are bytes, so a run of k lanes on n nodes costs
// k·n·w bytes of slab instead of k·n slice headers.
//
// Sealed columns are windows of the slab. A later block that grows the
// slab moves it, but the sealed windows keep the old bytes alive, so
// they stay valid; the next run on the store overwrites them (the arena
// retention contract, see arenaPair).
type outCols struct {
	n     int // entries per lane
	lanes int // the run's lane count
	data  []byte
	ends  []int32 // offsets form: lane-relative ends, [lane*n+v]
	lo    int     // first lane of the open block
	off   int     // slab offset of the open block
	// The open block: fix is its fixed-form region of width w; w < 0
	// marks offsets form, where next is the entry add writes and
	// laneOff the slab offset of that entry's lane.
	fix     []byte
	w       int
	next    int
	laneOff int
}

// begin opens a run of k lanes of n entries, dropping the previous run's
// bytes.
func (o *outCols) begin(k, n int) {
	o.n, o.lanes = n, k
	o.data = o.data[:0]
	o.lo, o.off = 0, 0
}

// fixed opens a block of kb lanes in fixed form at width w; collectors
// fill it through put. A cold slab is sized for every lane still to
// come at that width, so a multi-block run grows it once.
func (o *outCols) fixed(kb, w int) {
	o.off = len(o.data)
	need := o.off + kb*o.n*w
	if cap(o.data) < need {
		grown := make([]byte, need, o.off+(o.lanes-o.lo)*o.n*w)
		copy(grown, o.data)
		o.data = grown
	}
	o.data = o.data[:need]
	o.fix, o.w = o.data[o.off:need], w
}

// put writes entry i of a fixed-form block, reporting false when y is
// not the block's width. Workers may put disjoint entries concurrently.
func (o *outCols) put(i int, y []byte) bool {
	if len(y) != o.w {
		return false
	}
	if o.w == 1 {
		o.fix[i] = y[0]
	} else {
		copy(o.fix[i*o.w:], y)
	}
	return true
}

// ragged reopens the open block in offsets form: the block's fixed-form
// bytes are dropped, and add appends its entries from the block's first
// lane on.
func (o *outCols) ragged() {
	o.data = o.data[:o.off]
	o.ends = sliceFor(o.ends, o.lanes*o.n)
	o.fix, o.w = nil, -1
	o.next, o.laneOff = o.lo*o.n, o.off
}

// add appends the next entry of an offsets-form block.
func (o *outCols) add(y []byte) {
	o.data = append(o.data, y...)
	o.ends[o.next] = int32(len(o.data) - o.laneOff)
	o.next++
	if o.next%o.n == 0 {
		o.laneOff = len(o.data)
	}
}

// seal closes the open block of len(cols) lanes, setting cols[b] to the
// column of the block's lane b.
func (o *outCols) seal(cols []lang.Column) {
	n, start := o.n, o.off
	for b := range cols {
		lane := o.lo + b
		var c lang.Column
		var err error
		if o.w >= 0 {
			end := start + n*o.w
			c, err = lang.FixedColumn(o.data[start:end:end], n, o.w)
			start = end
		} else {
			ends := o.ends[lane*n : (lane+1)*n : (lane+1)*n]
			end := start
			if n > 0 {
				end += int(ends[n-1])
			}
			c, err = lang.OffsetColumn(o.data[start:end:end], ends)
			start = end
		}
		if err != nil {
			panic(fmt.Sprintf("local: sealing output lane %d: %v", lane, err))
		}
		cols[b] = c
	}
	o.lo += len(cols)
	o.off = len(o.data)
	o.fix = nil
}

// wireCol is a collected column in parts, the form a shard report and
// the shard-worker reply carry: N entries, in fixed form (Ends nil) of W
// bytes each, in offsets form ending at Ends. Nothing about it is
// trusted until Sharded.accept has rebuilt the column (column).
type wireCol struct {
	Data []byte
	Ends []int32
	N, W int
}

// wireColOf returns the parts of c.
func wireColOf(c lang.Column) wireCol {
	data, ends := c.Parts()
	w, _ := c.Width()
	return wireCol{Data: data, Ends: ends, N: c.Len(), W: w}
}

// column validates the parts and rebuilds the column: an offsets form
// needs exactly N monotone, in-range ends; a fixed form N entries of W
// bytes exactly filling Data.
func (wc *wireCol) column() (lang.Column, error) {
	if wc.Ends == nil {
		return lang.FixedColumn(wc.Data, wc.N, wc.W)
	}
	if len(wc.Ends) != wc.N {
		return lang.Column{}, fmt.Errorf("%w: %d ends for %d entries", lang.ErrColumn, len(wc.Ends), wc.N)
	}
	return lang.OffsetColumn(wc.Data, wc.Ends)
}
