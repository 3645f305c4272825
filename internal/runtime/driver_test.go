package runtime

import (
	"fmt"
	"sort"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
)

// rowRec is one ExecRow call as the recording executor saw it.
type rowRec struct {
	n     int
	bases string // fmt.Sprint of the per-field bases
}

// recScratch is the recording executor's per-worker scratch: the rows the
// worker executed plus the arguments of its last Prep.
type recScratch struct {
	rows   []rowRec
	preps  int
	maxRow int
}

// recExec is a RowExec that executes nothing and records everything.
type recExec struct {
	t    *testing.T
	syms []float64
}

func (r *recExec) Prep(sc *recScratch, maxRow int, syms []float64) {
	sc.preps++
	sc.maxRow = maxRow
	if &syms[0] != &r.syms[0] {
		r.t.Error("Prep received a different scalar vector than Run")
	}
}

func (r *recExec) ExecRow(sc *recScratch, n int, bases []int, syms []float64) {
	if &syms[0] != &r.syms[0] {
		r.t.Error("ExecRow received a different scalar vector than Run")
	}
	sc.rows = append(sc.rows, rowRec{n: n, bases: fmt.Sprint(bases)})
}

// wantRows enumerates the rows the driver must visit: every index over
// dims 0..nd-2 with the innermost dimension as the row — or, in 1-D, one
// row per tile.
func wantRows(b Box, tileRows int, fields []*field.Function) []rowRec {
	nd := len(b.Lo)
	base := func(idx []int) string {
		bases := make([]int, len(fields))
		for fi, f := range fields {
			for d := 0; d < nd; d++ {
				bases[fi] += (idx[d] + f.Halo[d]) * f.Bufs[0].Strides[d]
			}
		}
		return fmt.Sprint(bases)
	}
	var out []rowRec
	if nd == 1 {
		for lo := b.Lo[0]; lo < b.Hi[0]; lo += tileRows {
			hi := min(lo+tileRows, b.Hi[0])
			out = append(out, rowRec{n: hi - lo, bases: base([]int{lo})})
		}
		return out
	}
	idx := append([]int(nil), b.Lo...)
	var walk func(d int)
	walk = func(d int) {
		if d == nd-1 {
			out = append(out, rowRec{n: b.Hi[d] - b.Lo[d], bases: base(idx)})
			return
		}
		for idx[d] = b.Lo[d]; idx[d] < b.Hi[d]; idx[d]++ {
			walk(d + 1)
		}
	}
	walk(0)
	return out
}

func sortRows(rs []rowRec) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].bases != rs[j].bases {
			return rs[i].bases < rs[j].bases
		}
		return rs[i].n < rs[j].n
	})
}

// TestDriverVisitsEveryRowOnce drives a recording executor over 1-D, 2-D
// and 3-D boxes at every tiling and team shape: each row must be executed
// exactly once, with the right length and the right per-field bases (the
// two bound fields have different halo widths, so their bases differ).
func TestDriverVisitsEveryRowOnce(t *testing.T) {
	boxes := []Box{
		{Lo: []int{2}, Hi: []int{13}},
		{Lo: []int{1, 2}, Hi: []int{11, 9}},
		{Lo: []int{0, 1, 2}, Hi: []int{7, 4, 6}},
	}
	for _, b := range boxes {
		nd := len(b.Lo)
		shape := make([]int, nd)
		for d := range shape {
			shape[d] = b.Hi[d] + 2
		}
		g := grid.MustNew(shape, nil)
		u, err := field.NewTimeFunction("u", g, 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := field.NewFunction("m", g, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		bd := &Binding{}
		fields := map[string]*field.Function{"u": &u.Function, "m": m}
		for _, name := range []string{"u", "m"} {
			if _, err := bd.AddField(name, fields); err != nil {
				t.Fatal(err)
			}
		}
		outer := b.Hi[0] - b.Lo[0]
		// Operators always run TileRows tiles; Driver.Run takes any
		// height, so this table covers the others.
		for _, tileRows := range []int{0, 1, 3, outer + 5} {
			eff := tileRows
			if eff <= 0 || eff > outer {
				eff = outer
			}
			want := wantRows(b, eff, bd.Fields)
			sortRows(want)
			wantMaxRow := b.Hi[nd-1] - b.Lo[nd-1]
			if nd == 1 {
				wantMaxRow = eff
			}
			ntiles := (outer + eff - 1) / eff
			for _, workers := range []int{1, 2, 3, 7} {
				name := fmt.Sprintf("%dd/tile%d/w%d", nd, tileRows, workers)
				d := NewDriver[recScratch](bd)
				x := &recExec{t: t, syms: []float64{1}}
				p := NewPool(workers, 0)
				progress := 0
				opts := &ExecOpts{TileRows: tileRows, Pool: p}
				if workers == 1 {
					opts.Progress = func() { progress++ }
				}
				d.Run(x, 0, b, x.syms, opts)
				p.Close()

				if len(d.ws) != workers {
					t.Fatalf("%s: scratch table has %d workers, want %d", name, len(d.ws), workers)
				}
				var got []rowRec
				for w, wk := range d.ws {
					if wk.sc.preps != 1 || wk.sc.maxRow != wantMaxRow {
						t.Errorf("%s: worker %d prepped %d times with maxRow %d, want once with %d",
							name, w, wk.sc.preps, wk.sc.maxRow, wantMaxRow)
					}
					got = append(got, wk.sc.rows...)
				}
				sortRows(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: rows visited\n got %v\nwant %v", name, got, want)
				}
				if workers == 1 && progress != ntiles {
					t.Errorf("%s: progress prodded %d times, want once per tile (%d)", name, progress, ntiles)
				}
			}
		}

		// An empty box touches nothing: no Prep, no rows, no scratch.
		empty := Box{Lo: append([]int(nil), b.Lo...), Hi: append([]int(nil), b.Hi...)}
		empty.Hi[nd-1] = empty.Lo[nd-1]
		d := NewDriver[recScratch](bd)
		x := &recExec{t: t, syms: []float64{1}}
		d.Run(x, 0, empty, x.syms, &ExecOpts{TileRows: 2})
		if len(d.ws) != 0 {
			t.Errorf("%dd: empty box grew the scratch table to %d workers", nd, len(d.ws))
		}
	}
}
