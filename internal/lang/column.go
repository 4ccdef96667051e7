package lang

import (
	"errors"
	"fmt"
)

// Column is one configuration's output assignment y: entry v is node v's
// output string. The entries live in one byte slab rather than behind one
// slice header per node. In fixed form every entry has the same width w,
// and entry v is data[v*w:(v+1)*w]. In offsets form ends[v] is the end
// offset of entry v, and entry v starts where entry v−1 ends (entry 0 at
// 0). Every construction output of the repository is one byte, so the
// columns its executions produce are fixed-form slabs of n bytes.
//
// A Column is a read-only view, cheap to copy. At hands out windows of
// the slab, capped so an append cannot reach the next entry, and callers
// must not write through them. A column returned by an execution lives
// in the executor's output arena and follows its retention contract (see
// local.Batch.Run). The zero Column has no entries.
type Column struct {
	data []byte
	ends []int32 // offsets form; nil in fixed form
	n, w int     // entry count; the fixed form's width
}

// ErrColumn reports column parts that do not describe a column.
var ErrColumn = errors.New("lang: malformed output column")

// Len returns the number of entries.
func (c Column) Len() int { return c.n }

// At returns entry v: a zero-copy, cap-limited, read-only window of the
// slab. It panics when v is out of range.
func (c Column) At(v int) []byte {
	if c.ends == nil {
		if uint(v) >= uint(c.n) {
			panic(fmt.Sprintf("lang: column entry %d out of %d", v, c.n))
		}
		lo := v * c.w
		return c.data[lo : lo+c.w : lo+c.w]
	}
	hi := c.ends[v]
	lo := int32(0)
	if v > 0 {
		lo = c.ends[v-1]
	}
	return c.data[lo:hi:hi]
}

// Width returns the width every entry shares; fixed is false in offsets
// form, whose entries may differ.
func (c Column) Width() (w int, fixed bool) { return c.w, c.ends == nil }

// Parts returns the column's slab and, in offsets form, its end offsets
// (nil in fixed form), read-only. FixedColumn and OffsetColumn rebuild
// the column from them.
func (c Column) Parts() (data []byte, ends []int32) { return c.data, c.ends }

// Shares reports whether c and d are the same view of the same slab, the
// cheap identity test a view refill uses to skip an unchanged column.
func (c Column) Shares(d Column) bool {
	return c.n == d.n && c.w == d.w && sameBase(c.data, d.data) && sameBase(c.ends, d.ends)
}

// sameBase reports whether two slices start at the same element (or are
// both empty).
func sameBase[T any](a, b []T) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	return &a[0] == &b[0]
}

// Equal reports whether c and d hold the same entries, whatever their
// forms.
func (c Column) Equal(d Column) bool {
	if c.n != d.n {
		return false
	}
	if c.ends == nil && d.ends == nil && c.w == d.w {
		return string(c.data) == string(d.data)
	}
	for v := 0; v < c.n; v++ {
		if string(c.At(v)) != string(d.At(v)) {
			return false
		}
	}
	return true
}

// FixedColumn returns the fixed-form column of n entries of w bytes over
// data, which it does not copy. len(data) must be exactly n·w.
func FixedColumn(data []byte, n, w int) (Column, error) {
	if n < 0 || w < 0 || (n > 0 && w > len(data)/n) || n*w != len(data) {
		return Column{}, fmt.Errorf("%w: %d bytes for %d entries of width %d", ErrColumn, len(data), n, w)
	}
	return Column{data: data, n: n, w: w}, nil
}

// OffsetColumn returns the offsets-form column over data with entry v
// ending at ends[v], copying neither. The ends must be non-decreasing
// from 0 and the last must be len(data): the slab holds exactly the
// entries.
func OffsetColumn(data []byte, ends []int32) (Column, error) {
	if ends == nil {
		ends = []int32{}
	}
	prev := int32(0)
	for v, e := range ends {
		if e < prev {
			return Column{}, fmt.Errorf("%w: entry %d ends at %d, before %d", ErrColumn, v, e, prev)
		}
		prev = e
	}
	if int64(prev) != int64(len(data)) {
		return Column{}, fmt.Errorf("%w: entries end at %d in a %d-byte slab", ErrColumn, prev, len(data))
	}
	return Column{data: data, ends: ends, n: len(ends)}, nil
}

// ColumnOf copies rows into a new column: fixed form when every row has
// the width of the first, offsets form otherwise.
func ColumnOf(rows [][]byte) Column {
	n := len(rows)
	if n == 0 {
		return Column{}
	}
	total, fixed := 0, true
	for _, r := range rows {
		total += len(r)
		fixed = fixed && len(r) == len(rows[0])
	}
	data := make([]byte, 0, total)
	for _, r := range rows {
		data = append(data, r...)
	}
	if fixed {
		return Column{data: data, n: n, w: len(rows[0])}
	}
	ends := make([]int32, n)
	end := 0
	for v, r := range rows {
		end += len(r)
		ends[v] = int32(end)
	}
	return Column{data: data, ends: ends, n: n}
}

// Rows returns a [][]byte view of the column: row v is At(v), sharing
// the slab. It allocates the n headers the column itself avoids, so it
// is for the edges that need rows — pipeline stage inputs, examples and
// tests — not for trial loops.
func (c Column) Rows() [][]byte {
	rows := make([][]byte, c.n)
	for v := range rows {
		rows[v] = c.At(v)
	}
	return rows
}
