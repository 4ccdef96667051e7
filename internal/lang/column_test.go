package lang

import (
	"errors"
	"fmt"
	"testing"

	"rlnc/internal/graph"
)

// TestColumnForms pins the two column forms: ColumnOf picks fixed form
// exactly when every row has the first row's width, At returns each row
// back as a cap-limited window, Rows and Equal see through the form, and
// the parts rebuild the same column.
func TestColumnForms(t *testing.T) {
	for _, c := range []struct {
		name  string
		rows  [][]byte
		fixed bool
		width int
	}{
		{"empty", nil, true, 0},
		{"width-0", [][]byte{nil, {}, nil}, true, 0},
		{"width-1", [][]byte{{1}, {2}, {3}}, true, 1},
		{"width-2", [][]byte{{1, 2}, {3, 4}}, true, 2},
		{"mixed", [][]byte{{1}, nil, {2, 3}, {}}, false, 0},
	} {
		col := ColumnOf(c.rows)
		if col.Len() != len(c.rows) {
			t.Fatalf("%s: Len %d, want %d", c.name, col.Len(), len(c.rows))
		}
		if w, fixed := col.Width(); fixed != c.fixed || (fixed && w != c.width) {
			t.Fatalf("%s: Width (%d, %v), want (%d, %v)", c.name, w, fixed, c.width, c.fixed)
		}
		for v, r := range c.rows {
			y := col.At(v)
			if string(y) != string(r) || cap(y) != len(y) {
				t.Fatalf("%s: At(%d) = %v (cap %d), want %v", c.name, v, y, cap(y), r)
			}
		}
		if back := ColumnOf(col.Rows()); !back.Equal(col) || !col.Equal(back) {
			t.Fatalf("%s: Rows round trip %v, want %v", c.name, back, col)
		}
		data, ends := col.Parts()
		var rebuilt Column
		var err error
		if ends == nil {
			w, _ := col.Width()
			rebuilt, err = FixedColumn(data, col.Len(), w)
		} else {
			rebuilt, err = OffsetColumn(data, ends)
		}
		if err != nil || !rebuilt.Equal(col) || !rebuilt.Shares(col) {
			t.Fatalf("%s: rebuilt from parts: %v, %v", c.name, rebuilt, err)
		}
	}
	if a, b := ColumnOf([][]byte{{1}, {2}}), ColumnOf([][]byte{{1}, {3}}); a.Equal(b) || a.Shares(b) {
		t.Fatal("different columns compare equal")
	}
	if a, b := ColumnOf([][]byte{{1, 2}}), ColumnOf([][]byte{{1}, {2}}); a.Equal(b) {
		t.Fatal("columns of different entry counts compare equal")
	}
}

// TestColumnRejectsMalformedParts pins the constructors' validation:
// parts that do not describe exactly n entries of a slab are errors.
func TestColumnRejectsMalformedParts(t *testing.T) {
	for name, err := range map[string]error{
		"fixed short slab":        second(FixedColumn([]byte{1, 2, 3}, 2, 2)),
		"fixed long slab":         second(FixedColumn([]byte{1, 2, 3}, 1, 2)),
		"fixed negative width":    second(FixedColumn(nil, 2, -1)),
		"fixed negative count":    second(FixedColumn(nil, -2, 0)),
		"fixed overflowing width": second(FixedColumn([]byte{1}, 1<<30, 1<<30)),
		"offsets out of order":    second(OffsetColumn([]byte{1, 2, 3}, []int32{2, 1, 3})),
		"offsets negative end":    second(OffsetColumn([]byte{1, 2, 3}, []int32{-1, 2, 3})),
		"offsets past the slab":   second(OffsetColumn([]byte{1, 2, 3}, []int32{1, 4})),
		"offsets short of slab":   second(OffsetColumn([]byte{1, 2, 3}, []int32{1, 2})),
	} {
		if !errors.Is(err, ErrColumn) {
			t.Errorf("%s: error %v, want ErrColumn", name, err)
		}
	}
	if _, err := OffsetColumn(nil, nil); err != nil {
		t.Errorf("empty offsets column: %v", err)
	}
}

func second(_ Column, err error) error { return err }

// TestColumnAtPanicsOutOfRange pins that At bounds-checks both forms,
// the zero-width fixed form included (its slab is empty whatever v is).
func TestColumnAtPanicsOutOfRange(t *testing.T) {
	for _, col := range []Column{ColumnOf([][]byte{nil, nil}), ColumnOf([][]byte{{1}, {2, 3}})} {
		for _, v := range []int{-1, 2} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("At(%d) on a 2-entry column did not panic", v)
					}
				}()
				col.At(v)
			}()
		}
	}
}

// TestBadRowReadsFixedColumns pins the row deciders' byte fast path
// against the per-ball predicate: fixed-form columns of width 1 (every
// byte value, so out-of-palette and bad selection marks included) and of
// widths 0 and 2 (malformed everywhere) decide every ball exactly like
// Bad on the same configuration.
func TestBadRowReadsFixedColumns(t *testing.T) {
	g := graph.Cycle(12)
	for _, l := range []*LCL{ProperColoring(3), WeakColoring(2), MIS(), NoneSelected()} {
		for _, w := range []int{0, 1, 2} {
			for shift := 0; shift < 3; shift++ {
				rows := make([][]byte, g.N())
				for v := range rows {
					rows[v] = make([]byte, w)
					for i := range rows[v] {
						rows[v][i] = byte((v*7 + shift) % 5)
					}
				}
				c := &Config{G: g, X: EmptyInputs(g.N()), Y: ColumnOf(rows)}
				if _, fixed := c.Y.Width(); !fixed {
					t.Fatal("uniform rows did not make a fixed column")
				}
				want := 0
				for v := 0; v < g.N(); v++ {
					if l.Bad(LabeledBallAround(c, v, l.Radius)) {
						want++
					}
				}
				if got := l.CountBadBalls(c); got != want {
					t.Errorf("%s, width %d, shift %d: row path counts %d bad balls, ball path %d",
						l.Name(), w, shift, got, want)
				}
			}
		}
	}
}

// ExampleColumn shows the two forms a column takes.
func ExampleColumn() {
	colors := ColumnOf([][]byte{EncodeColor(0), EncodeColor(2), EncodeColor(1)})
	w, fixed := colors.Width()
	fmt.Println(colors.Len(), w, fixed, colors.At(1))
	mixed := ColumnOf([][]byte{{7}, nil, {8, 9}})
	_, fixed = mixed.Width()
	fmt.Println(mixed.Len(), fixed, mixed.At(2), mixed.Rows())
	// Output:
	// 3 1 true [2]
	// 3 false [8 9] [[7] [] [8 9]]
}
