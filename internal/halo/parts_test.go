package halo

import (
	"fmt"
	"slices"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/mpi"
)

// seedBuffers writes every time buffer of f: ghosts -1, each owned point
// its encoded global coordinates plus a bias unique to (f, buffer), so a
// slab unpacked into the wrong part or the wrong level shows.
func seedBuffers(f *field.Function, bias float32) {
	nd := f.NDims()
	idx, g := make([]int, nd), make([]int, nd)
	for b := range f.Bufs {
		buf := f.Buf(b)
		buf.Fill(-1)
		var rec func(d int)
		rec = func(d int) {
			if d == nd {
				for k := range g {
					g[k] = f.Origin[k] + idx[k]
				}
				f.SetDomain(b, enc(g)+bias+float32(b)*1e5, idx...)
				return
			}
			for idx[d] = 0; idx[d] < f.LocalShape[d]; idx[d]++ {
				rec(d + 1)
			}
		}
		rec(0)
	}
}

// An exchanger over several parts fills exactly the ghosts that one
// exchanger per part fills — two fields of different ghost widths, or two
// time levels of one field at different depths — while sending one message
// per neighbour per phase, with the parts' slabs for its payload.
func TestPartsFillWhatSeparateExchangersFill(t *testing.T) {
	const t0 = 1 // levels 1 and 2 of a three-buffer field: Buf wraps
	topo := []int{3, 3}
	g := grid.MustNew([]int{12, 12}, nil)
	cases := []struct {
		name  string
		parts func(a, b *field.Function, u *field.TimeFunction) []Part
		// bufs indexes the parts' buffers among a's, b's and u's.
		bufs []int
	}{
		{"two-fields", func(a, b *field.Function, _ *field.TimeFunction) []Part {
			return []Part{{F: a}, {F: b}}
		}, []int{0, 1}},
		{"two-levels", func(_, _ *field.Function, u *field.TimeFunction) []Part {
			return []Part{{F: &u.Function}, {F: &u.Function, TimeOff: 1, Depth: []int{2, 2}}}
		}, []int{3, 4}},
	}
	for _, mode := range []Mode{ModeBasic, ModeDiagonal, ModeFull} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", mode, tc.name), func(t *testing.T) {
				// run exchanges on a fresh 3x3 world, through one exchanger
				// or one per part, and returns every rank's buffers before
				// and after it plus, when aggregated, the exchanger's
				// Traffic.
				type outcome struct {
					before, data        [][]float32
					msgs, wantMsgs      int
					bytes, partBytesSum float64
				}
				run := func(aggregate bool) ([]outcome, []mpi.Stats) {
					out := make([]outcome, 9)
					w := mpi.NewWorld(9)
					err := w.Run(func(c *mpi.Comm) {
						dec, err := grid.NewDecomposition(g, 9, topo)
						if err != nil {
							panic(err)
						}
						cart, err := mpi.CartCreate(c, dec.Topology, nil)
						if err != nil {
							panic(err)
						}
						cfg := &field.Config{Decomp: dec, Rank: c.Rank()}
						a, _ := field.NewFunction("a", g, 2, cfg)
						b, _ := field.NewFunction("b", g, 4, cfg)
						u, _ := field.NewTimeFunction("u", g, 4, 2, cfg)
						seedBuffers(a, 1e6)
						seedBuffers(b, 2e6)
						seedBuffers(&u.Function, 3e6)
						parts := tc.parts(a, b, u)
						o := &out[c.Rank()]
						snapshot := func() (s [][]float32) {
							for _, f := range []*field.Function{a, b, &u.Function} {
								for bi := range f.Bufs {
									buf := f.Buf(bi)
									s = append(s, slices.Clone(buf.Data))
								}
							}
							return s
						}
						o.before = snapshot()
						if aggregate {
							x := NewParts(mode, cart, 0, parts)
							o.msgs, o.bytes = x.Traffic()
							x.Exchange(t0)
							for _, phase := range messages(mode, 2) {
								for _, m := range phase {
									if cart.Neighbor(m.offset) != mpi.ProcNull {
										o.wantMsgs++
									}
								}
							}
							for i, p := range parts {
								_, pb := NewDepth(mode, cart, p.F, 1+i, p.Depth).Traffic()
								o.partBytesSum += pb
							}
						} else {
							for i, p := range parts {
								NewDepth(mode, cart, p.F, i, p.Depth).Exchange(t0 + p.TimeOff)
							}
						}
						o.data = snapshot()
					})
					if err != nil {
						t.Fatal(err)
					}
					return out, w.StatsSnapshot()
				}
				want, _ := run(false)
				got, stats := run(true)
				for rank := range got {
					for i := range got[rank].data {
						if !slices.Equal(got[rank].data[i], want[rank].data[i]) {
							t.Errorf("rank %d buffer %d: the aggregated exchange filled other ghosts than one exchanger per part", rank, i)
						}
					}
					o := got[rank]
					if o.msgs != o.wantMsgs || o.msgs != stats[rank].MsgsSent {
						t.Errorf("rank %d: Traffic counts %d messages, transport %d, want one per neighbour per phase: %d",
							rank, o.msgs, stats[rank].MsgsSent, o.wantMsgs)
					}
					if o.bytes != o.partBytesSum || o.bytes != float64(stats[rank].BytesSent) {
						t.Errorf("rank %d: Traffic counts %g bytes, transport %d, the parts' exchangers %g",
							rank, o.bytes, stats[rank].BytesSent, o.partBytesSum)
					}
				}
				// The centre rank has every neighbour: every part's ghosts
				// were filled.
				for _, i := range tc.bufs {
					if slices.Equal(got[4].before[i], got[4].data[i]) {
						t.Errorf("centre rank: buffer %d untouched by the exchange", i)
					}
				}
			})
		}
	}
}
