package halo

import (
	"strings"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/mpi"
)

// Hand-counted Traffic totals across modes and widths, deep widths
// included. The byte volume is 4 bytes per point of the halo shell
// (outer box minus owned box); message counts are 2 per dimension for
// basic and 3^n - 1 for diagonal/full.
func TestTrafficHandCounted(t *testing.T) {
	cases := []struct {
		mode      Mode
		local     []int
		width     int
		wantMsgs  int
		wantBytes float64
	}{
		// 2-D 10x10, width 2: shell = 14^2 - 10^2 = 96 points.
		{ModeBasic, []int{10, 10}, 2, 4, 4 * 96},
		{ModeDiagonal, []int{10, 10}, 2, 8, 4 * 96},
		{ModeFull, []int{10, 10}, 2, 8, 4 * 96},
		// Same box, deep width 8 (k=4 tiling of a radius-2 stencil):
		// shell = 26^2 - 10^2 = 576 points.
		{ModeBasic, []int{10, 10}, 8, 4, 4 * 576},
		{ModeDiagonal, []int{10, 10}, 8, 8, 4 * 576},
		// 3-D 4x5x6, width 3: shell = 10*11*12 - 120 = 1200 points.
		{ModeBasic, []int{4, 5, 6}, 3, 6, 4 * 1200},
		{ModeDiagonal, []int{4, 5, 6}, 3, 26, 4 * 1200},
		{ModeFull, []int{4, 5, 6}, 3, 26, 4 * 1200},
		// Degenerate widths.
		{ModeDiagonal, []int{10, 10}, 0, 0, 0},
		{ModeNone, []int{10, 10}, 4, 0, 0},
	}
	for _, c := range cases {
		msgs, bytes := Traffic(c.mode, c.local, c.width)
		if msgs != c.wantMsgs || bytes != c.wantBytes {
			t.Errorf("Traffic(%s, %v, %d) = (%d, %g), want (%d, %g)",
				c.mode, c.local, c.width, msgs, bytes, c.wantMsgs, c.wantBytes)
		}
	}
}

// AmortizedTraffic divides messages and bytes by the exchange interval;
// the streams share one message per neighbour, so only bytes multiply by
// the stream count.
func TestAmortizedTrafficHandCounted(t *testing.T) {
	local := []int{10, 10}
	// diag width 8, k=4, 2 streams: msgs 8/4 = 2/step;
	// bytes = 4*576*2/4 = 1152/step.
	m, b := AmortizedTraffic(ModeDiagonal, local, 8, 4, 2)
	if m != 2 || b != 4*576*2/4 {
		t.Errorf("AmortizedTraffic = (%g, %g), want (2, %g)", m, b, float64(4*576*2/4))
	}
	// k=1 must reduce to plain Traffic's messages and its bytes times
	// streams.
	m1, b1 := AmortizedTraffic(ModeBasic, local, 2, 1, 3)
	tm, tb := Traffic(ModeBasic, local, 2)
	if m1 != float64(tm) || b1 != 3*tb {
		t.Errorf("k=1 AmortizedTraffic = (%g, %g), want (%g, %g)", m1, b1, float64(tm), 3*tb)
	}
	// Relative to the k=1 baseline of the same stream count, the message
	// rate must fall by exactly k.
	mk, _ := AmortizedTraffic(ModeDiagonal, local, 8, 4, 2)
	m0, _ := AmortizedTraffic(ModeDiagonal, local, 2, 1, 2)
	if got, want := mk/m0, 0.25; got != want {
		t.Errorf("message ratio at k=4 = %g, want %g", got, want)
	}
}

// ParseMode accepts the Devito-style aliases and lists the valid names in
// its error.
func TestParseModeAliasesAndErrorVocabulary(t *testing.T) {
	for s, want := range map[string]Mode{
		"diag": ModeDiagonal, "diagonal": ModeDiagonal, "diag2": ModeDiagonal,
		"overlap": ModeFull, "overlapped": ModeFull, "full": ModeFull,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	_, err := ParseMode("bogus")
	if err == nil {
		t.Fatal("ParseMode(bogus) succeeded")
	}
	for _, name := range []string{"basic", "diag", "full", "overlap", "none"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseMode error %q does not list valid name %q", err, name)
		}
	}
}

// deepField builds a rank-local field with a deep ghost allocation
// (HaloWidth = width) and the DOMAIN filled with globally encoded values.
func deepField(t *testing.T, c *mpi.Comm, g *grid.Grid, topo []int, width int) (*field.Function, *mpi.CartComm) {
	t.Helper()
	d, err := grid.NewDecomposition(g, c.Size(), topo)
	if err != nil {
		t.Fatal(err)
	}
	cart, err := mpi.CartCreate(c, d.Topology, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := field.NewFunction("u", g, width, &field.Config{Decomp: d, Rank: c.Rank(), HaloWidth: width})
	if err != nil {
		t.Fatal(err)
	}
	fillDomain(f)
	return f, cart
}

// TestDeepExchangeFillsWholeRing runs every mode with a deep allocation
// (width 4 on 6-point chunks) and checks the entire deep ring holds the
// neighbours' encoded values — the deep-halo exchange of time tiling.
func TestDeepExchangeFillsWholeRing(t *testing.T) {
	shape := []int{12, 12}
	for _, mode := range []Mode{ModeBasic, ModeDiagonal, ModeFull} {
		t.Run(mode.String(), func(t *testing.T) {
			g := grid.MustNew(shape, nil)
			w := mpi.NewWorld(4)
			err := w.Run(func(c *mpi.Comm) {
				f, cart := deepField(t, c, g, []int{2, 2}, 4)
				ex := NewDepth(mode, cart, f, 0, nil)
				ex.Exchange(0)
				if n := verifyHalo(t, f, c.Rank(), "deep-"+mode.String()); n == 0 {
					t.Errorf("%s rank %d: no deep halo cells verified", mode, c.Rank())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPartialDepthExchange exchanges only the innermost band of a deeper
// allocation: cells within the requested depth must be filled, cells
// beyond it must stay untouched (zero).
func TestPartialDepthExchange(t *testing.T) {
	shape := []int{12, 12}
	const allocW, depth = 4, 2
	for _, mode := range []Mode{ModeBasic, ModeDiagonal, ModeFull} {
		t.Run(mode.String(), func(t *testing.T) {
			g := grid.MustNew(shape, nil)
			w := mpi.NewWorld(4)
			err := w.Run(func(c *mpi.Comm) {
				f, cart := deepField(t, c, g, []int{2, 2}, allocW)
				ex := NewDepth(mode, cart, f, 0, []int{depth, depth})
				ex.Exchange(0)
				buf := f.Buf(0)
				dom := f.DomainRegion()
				full := f.FullShape()
				for i := 0; i < full[0]; i++ {
					for j := 0; j < full[1]; j++ {
						inDom := i >= dom.Lo[0] && i < dom.Hi[0] && j >= dom.Lo[1] && j < dom.Hi[1]
						if inDom {
							continue
						}
						gi, gj := f.Origin[0]+i-allocW, f.Origin[1]+j-allocW
						if gi < 0 || gi >= shape[0] || gj < 0 || gj >= shape[1] {
							continue
						}
						// Distance (in points) outside the owned box.
						di := dist(i, dom.Lo[0], dom.Hi[0])
						dj := dist(j, dom.Lo[1], dom.Hi[1])
						got := buf.At(i, j)
						if di <= depth && dj <= depth {
							if want := enc([]int{gi, gj}); got != want {
								t.Errorf("%s rank %d: depth-%d cell (%d,%d) = %v, want %v",
									mode, c.Rank(), depth, i, j, got, want)
							}
						} else if got != 0 {
							t.Errorf("%s rank %d: beyond-depth cell (%d,%d) = %v, want untouched 0",
								mode, c.Rank(), i, j, got)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// dist returns how far x lies outside [lo, hi) (0 when inside).
func dist(x, lo, hi int) int {
	if x < lo {
		return lo - x
	}
	if x >= hi {
		return x - hi + 1
	}
	return 0
}
