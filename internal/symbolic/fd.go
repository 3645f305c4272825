package symbolic

import (
	"fmt"
	"math/big"
	"strconv"
	"sync"
	"sync/atomic"
)

// FDWeights computes exact finite-difference weights for the m-th derivative
// at 0 on the stencil offsets given (in grid spacings; staggered stencils use
// half-integer offsets), assuming unit spacing. The weights w satisfy
// sum_k w[k] * f(offset[k]*h) = f^(m)(0) * h^m + O(h^(len-m)), and are the
// unique such n-point weights. w[k] belongs to offsets[k].
//
// Weights come from Fornberg's recurrence ("Generation of finite difference
// formulas on arbitrarily spaced grids", Math. Comp. 51, 1988) in exact
// rationals and are memoised per (m, offsets): every derivative node of
// every operator asks for one of a few dozen stencils. Each call returns
// its own slice and rationals, so callers may modify them.
func FDWeights(m int, offsets []*big.Rat) ([]*big.Rat, error) {
	var arr [128]byte
	key := strconv.AppendInt(arr[:0], int64(m), 10)
	for _, o := range offsets {
		key = appendExpr(append(key, ' '), Num{Val: o})
	}
	w, err := memoWeights(string(key), m, func() []*big.Rat { return offsets })
	if err != nil {
		return nil, err
	}
	return copyRats(w), nil
}

// memoWeights returns the memoised weights stored under key, computing
// them from offsets() on a miss. The slice and its rationals are the
// memo's: FDWeights hands out copies, and expandDeriv puts them in Nums,
// which nothing modifies.
func memoWeights(key string, m int, offsets func() []*big.Rat) ([]*big.Rat, error) {
	if w, ok := fdMemo.Load(key); ok {
		return w.([]*big.Rat), nil
	}
	offs := offsets()
	if err := checkStencil(m, offs); err != nil {
		return nil, err
	}
	w, _ := fdMemo.LoadOrStore(key, fornberg(m, offs))
	return w.([]*big.Rat), nil
}

// fdMemo maps "m o_0 o_1 ..." (offsets as RatStrings) to the weights
// computed for it.
var fdMemo sync.Map

// checkStencil rejects the inputs the recurrence cannot take: it divides
// by the differences of offsets.
func checkStencil(m int, offsets []*big.Rat) error {
	if m < 0 {
		return fmt.Errorf("symbolic: negative derivative order %d", m)
	}
	if m >= len(offsets) {
		return fmt.Errorf("symbolic: need more than %d points for derivative order %d", m, m)
	}
	for i, a := range offsets {
		for _, b := range offsets[:i] {
			if a.Cmp(b) == 0 {
				return fmt.Errorf("symbolic: stencil offset %s repeats", a.RatString())
			}
		}
	}
	return nil
}

// fornberg runs Fornberg's recurrence for the weights of derivatives 0..m
// at 0 on the distinct nodes x, adding one node at a time: c[j][k] is the
// weight of x[j] for the k-th derivative over the nodes seen so far.
// O(len(x)^2 * m) rational operations; returns the m-th derivative column.
func fornberg(m int, x []*big.Rat) []*big.Rat {
	n := len(x)
	c := make([][]big.Rat, n)
	for i := range c {
		c[i] = make([]big.Rat, m+1)
	}
	c[0][0].SetInt64(1)
	var prod, prevProd, diff, scale, t, u, kr big.Rat
	prevProd.SetInt64(1)
	for i := 1; i < n; i++ {
		top := min(i, m)
		prod.SetInt64(1)
		for j := 0; j < i; j++ {
			diff.Sub(x[i], x[j])
			prod.Mul(&prod, &diff)
			if j == i-1 {
				// The new node's weights, from the previous node's.
				scale.Quo(&prevProd, &prod)
				for k := top; k >= 1; k-- {
					t.Mul(kr.SetInt64(int64(k)), &c[i-1][k-1])
					u.Mul(x[i-1], &c[i-1][k])
					t.Sub(&t, &u)
					c[i][k].Mul(&scale, &t)
				}
				c[i][0].Mul(x[i-1], &c[i-1][0])
				c[i][0].Mul(&c[i][0], &scale)
				c[i][0].Neg(&c[i][0])
			}
			for k := top; k >= 1; k-- {
				t.Mul(x[i], &c[j][k])
				u.Mul(kr.SetInt64(int64(k)), &c[j][k-1])
				t.Sub(&t, &u)
				c[j][k].Quo(&t, &diff)
			}
			c[j][0].Mul(x[i], &c[j][0])
			c[j][0].Quo(&c[j][0], &diff)
		}
		prevProd.Set(&prod)
	}
	w := make([]*big.Rat, n)
	for j := range w {
		w[j] = new(big.Rat).Set(&c[j][m])
	}
	return w
}

func copyRats(rs []*big.Rat) []*big.Rat {
	out := make([]*big.Rat, len(rs))
	for i, r := range rs {
		out[i] = new(big.Rat).Set(r)
	}
	return out
}

// CentralOffsets returns the centered integer offsets used for an m-th
// derivative at accuracy order acc: radius = acc/2 + (m-1)/2 rounded per the
// classic rule radius = (m+1)/2 + acc/2 - 1 for even acc. Devito uses
// radius = acc/2 for second derivatives and first derivatives alike (its
// space_order is the stencil radius*2), which we mirror.
func CentralOffsets(m, acc int) []*big.Rat { return ratsOver(centralNums(m, acc), 1) }

// centralNums is CentralOffsets as integers.
func centralNums(m, acc int) []int64 {
	radius := acc / 2
	if radius < (m+1)/2 {
		radius = (m + 1) / 2
	}
	out := make([]int64, 0, 2*radius+1)
	for k := -radius; k <= radius; k++ {
		out = append(out, int64(k))
	}
	return out
}

// StaggeredOffsets returns half-node offsets for a first derivative
// evaluated between grid points: side=+1 gives offsets {-(r-1)-1/2 ...
// +(r-1)+1/2} centered at +1/2, i.e. the forward-staggered stencil; side=-1
// the backward one. acc must be even; r = acc/2 pairs of points are used.
func StaggeredOffsets(acc, side int) []*big.Rat { return ratsOver(staggeredNums(acc, side), 2) }

// staggeredNums is StaggeredOffsets as numerators over 2.
func staggeredNums(acc, side int) []int64 {
	r := acc / 2
	if r < 1 {
		r = 1
	}
	out := make([]int64, 0, 2*r)
	for k := -r; k < r; k++ {
		// Offsets at k + 1/2 for forward; mirrored for backward.
		o := 2*int64(k) + 1
		if side < 0 {
			o = -o
		}
		out = append(out, o)
	}
	if side < 0 {
		// Keep ascending order for readability/determinism.
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// ratsOver returns the rationals n/den.
func ratsOver(nums []int64, den int64) []*big.Rat {
	out := make([]*big.Rat, len(nums))
	for i, n := range nums {
		out[i] = big.NewRat(n, den)
	}
	return out
}

// spacingSymbol returns the canonical spacing symbol for a dimension index:
// h_x, h_y, h_z (or dt for the time dimension, dim == -1).
func spacingSymbol(dim int) Sym {
	if dim < 0 {
		return S("dt")
	}
	names := []string{"h_x", "h_y", "h_z", "h_w"}
	return S(names[dim%len(names)])
}

// ExpandTimeDerivatives expands only the time-derivative nodes (Dim < 0),
// leaving spatial derivatives symbolic. Solve uses it so that the target
// access u[t+1] becomes visible without destroying the nested spatial
// derivative structure that the CIRE flop-reduction pass operates on.
func ExpandTimeDerivatives(e Expr) Expr {
	return Transform(e, func(n Expr) Expr {
		d, ok := n.(Deriv)
		if !ok || d.Dim >= 0 {
			return n
		}
		return expandDeriv(d)
	})
}

// ExpandDerivatives rewrites every Deriv node into its finite-difference
// stencil: a weighted sum of shifted Access nodes divided by the appropriate
// spacing power. Derivatives of arbitrary expressions are supported by
// shifting every Access inside the target; derivatives of products with
// non-Access factors (e.g. parameter-weighted fields, as in the rotated TTI
// Laplacian) shift the parameter accesses too, which matches Devito's
// semantics of evaluating the inner expression at the shifted point.
func ExpandDerivatives(e Expr) Expr {
	expansions.Add(1)
	return Transform(e, func(n Expr) Expr {
		d, ok := n.(Deriv)
		if !ok {
			return n
		}
		return expandDeriv(d)
	})
}

// expansions counts ExpandDerivatives calls (see Expansions).
var expansions atomic.Int64

// Expansions reports how many expressions ExpandDerivatives has expanded
// in this process. A construction expands each equation once, and tests
// hold it to that.
func Expansions() int64 { return expansions.Load() }

func expandDeriv(d Deriv) Expr {
	// Offsets are numerators over den: 1, or 2 for a staggered stencil's
	// half-node offsets.
	var nums []int64
	den := int64(1)
	switch {
	case d.Dim < 0 && d.FDOrder == 1:
		// Forward (explicit) time difference: a TimeFunction with
		// time_order 1 has only two buffers, so u.dt must be
		// (u[t+1]-u[t])/dt, not centered.
		nums = make([]int64, d.Order+1)
		for k := range nums {
			nums[k] = int64(k)
		}
	case d.Side == 0:
		nums = centralNums(d.Order, d.FDOrder)
	case d.Order == 1:
		nums, den = staggeredNums(d.FDOrder, d.Side), 2
	default:
		// Staggered higher derivatives are composed of first derivatives by
		// the propagators; fall back to centered.
		nums = centralNums(d.Order, d.FDOrder)
	}
	// The memo key FDWeights would build for these offsets, without
	// making them rationals unless the weights must be computed.
	var arr [128]byte
	key := strconv.AppendInt(arr[:0], int64(d.Order), 10)
	for _, n := range nums {
		key = append(key, ' ')
		if n%den == 0 {
			key = strconv.AppendInt(key, n/den, 10)
		} else {
			key = strconv.AppendInt(key, n, 10)
			key = append(key, '/')
			key = strconv.AppendInt(key, den, 10)
		}
	}
	weights, err := memoWeights(string(key), d.Order, func() []*big.Rat { return ratsOver(nums, den) })
	if err != nil {
		// Impossible by construction (offsets are distinct); keep the node.
		return d
	}
	// Note any half offsets: the shift must land on integers for array
	// accesses, so staggered targets absorb the 1/2 via their storage
	// convention (value at x+1/2 stored at index x). Each tap's weight is
	// the memo's own rational, shared: Num values are never modified.
	terms := make([]Expr, 0, len(nums))
	for i, n := range nums {
		if weights[i].Sign() == 0 {
			continue
		}
		shift, half := offsetShift(n, den)
		shifted := shiftExpr(d.Target, d.Dim, shift, half)
		terms = append(terms, NewMul(Num{Val: weights[i]}, shifted))
	}
	sum := NewAdd(terms...)
	h := spacingSymbol(d.Dim)
	return NewMul(sum, NewPow(h, -d.Order))
}

// offsetShift decomposes a stencil offset n/den (den 1 or 2) into an
// integer shift plus an optional half-cell remainder. Offsets are always k
// or k+1/2.
func offsetShift(n, den int64) (shift int, half bool) {
	if den == 1 || n%den == 0 {
		return int(n / den), false
	}
	// n/2 with n odd: floor to the storage index convention
	// value(x + (2k+1)/2) lives at index x + k.
	return int((n - 1) / 2), true
}

// shiftExpr shifts every Access in e by `shift` cells along dim. The `half`
// flag is informational: staggered storage places half-node values at the
// floor integer index, so no further action is required, but the flag is
// validated against the accessed function's stagger so mistakes surface.
func shiftExpr(e Expr, dim int, shift int, half bool) Expr {
	return Transform(e, func(n Expr) Expr {
		a, ok := n.(Access)
		if !ok {
			return n
		}
		if dim < 0 {
			if !a.Fun.IsTime {
				return a
			}
			return Access{Fun: a.Fun, TimeOff: a.TimeOff + shift, Off: a.Off}
		}
		if dim >= len(a.Off) {
			return a
		}
		off := make([]int, len(a.Off))
		copy(off, a.Off)
		off[dim] += shift
		return Access{Fun: a.Fun, TimeOff: a.TimeOff, Off: off}
	})
}
