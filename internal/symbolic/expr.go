// Package symbolic implements the expression algebra that devigo operators
// are written in: a small computer-algebra system covering exactly the
// subset of SymPy that the Devito compiler relies on — rational arithmetic,
// flattening/collection, linear solves, and finite-difference expansion of
// derivative nodes.
package symbolic

import (
	"math/big"
	"strconv"
)

// Expr is a symbolic expression node. Expressions are immutable: every
// transformation returns a new tree, and a Num's rational is never
// modified once it is in a node, so constructors and passes share one
// *big.Rat between nodes instead of copying it.
type Expr interface {
	// String renders a human-readable form of the expression that is also
	// its canonical key: structurally identical trees render identically.
	// Passes that match subtrees by this key compose it from their
	// operands' keys (Keyed) rather than calling String on every node.
	String() string
	// isExpr is a marker to keep the implementing set closed.
	isExpr()
}

// Num is an exact rational constant.
type Num struct {
	Val *big.Rat
}

// Sym is a free scalar symbol such as a grid spacing h_x or the timestep dt.
type Sym struct {
	Name string
}

// Access is a read or write of a discrete function at integer offsets from
// the current iteration point. TimeOff is the offset on the stepping
// dimension (meaningless for time-invariant functions); Off holds one entry
// per space dimension.
type Access struct {
	Fun     *FuncRef
	TimeOff int
	Off     []int
}

// FuncRef identifies a discrete function symbolically. The compiler resolves
// it to storage later; symbolic only needs its name and dimensionality.
type FuncRef struct {
	Name    string
	NDims   int  // number of space dimensions
	IsTime  bool // varies over the stepping dimension
	NumBufs int  // time buffers (time functions only)
	// Stagger records a half-cell shift per space dimension (0 or 1, in
	// units of half spacings). Used by staggered-grid propagators.
	Stagger []int
}

// Add is an n-ary sum.
type Add struct {
	Terms []Expr
}

// Mul is an n-ary product.
type Mul struct {
	Factors []Expr
}

// Pow is base**exp with integer exponent (negative allowed).
type Pow struct {
	Base Expr
	Exp  int
}

// Deriv is an unexpanded derivative of Target with respect to a dimension.
// Dim==-1 denotes the time dimension. FDOrder is the discretisation
// (space/time) order to use when the derivative is expanded to a stencil.
type Deriv struct {
	Target  Expr
	Dim     int
	Order   int // derivative order (1 = first derivative, ...)
	FDOrder int // accuracy order of the finite-difference approximation
	// Side selects a one-sided/staggered expansion: 0 centered, +1 forward
	// half-node, -1 backward half-node (staggered grids).
	Side int
}

func (Num) isExpr()    {}
func (Sym) isExpr()    {}
func (Access) isExpr() {}
func (Add) isExpr()    {}
func (Mul) isExpr()    {}
func (Pow) isExpr()    {}
func (Deriv) isExpr()  {}

// Int returns an exact integer constant.
func Int(v int64) Num { return Num{Val: big.NewRat(v, 1)} }

// Rat returns an exact rational constant p/q.
func Rat(p, q int64) Num { return Num{Val: big.NewRat(p, q)} }

// Float returns a constant from a float64 (exact binary value).
func Float(v float64) Num {
	r := new(big.Rat)
	r.SetFloat64(v)
	return Num{Val: r}
}

// Zero and One are shared constants.
var (
	ZeroExpr = Int(0)
	OneExpr  = Int(1)
)

// S returns a named scalar symbol.
func S(name string) Sym { return Sym{Name: name} }

// String renders the rational as an integer or a/b fraction.
func (n Num) String() string { return string(appendExpr(nil, n)) }

// String returns the symbol's name.
func (s Sym) String() string { return s.Name }

// String renders the access in u[t+1, x, y] index notation.
func (a Access) String() string { return string(appendExpr(nil, a)) }

// String renders the sum as a parenthesised + chain.
func (a Add) String() string { return string(appendExpr(nil, a)) }

// String renders the product as a * chain.
func (m Mul) String() string { return string(appendExpr(nil, m)) }

// String renders the power in base**exp notation.
func (p Pow) String() string { return string(appendExpr(nil, p)) }

// String renders the derivative in d^n/d<dim>^n(expr) notation.
func (d Deriv) String() string { return string(appendExpr(nil, d)) }

// dimNames names the space dimensions in rendered accesses and derivatives.
var dimNames = [...]string{"x", "y", "z", "w"}

// appendExpr appends e's rendering to buf: the one renderer behind every
// String method and every Keyed key.
func appendExpr(buf []byte, e Expr) []byte { return render(buf, e, nil) }

// render is appendExpr that, when spans is not nil, also records where
// each node's text lies in buf: a [start, end) pair per node, in pre-order.
func render(buf []byte, e Expr, spans *[]int) []byte {
	at := 0
	if spans != nil {
		at = len(*spans)
		*spans = append(*spans, len(buf), 0)
	}
	switch v := e.(type) {
	case Num:
		buf = appendInt(buf, v.Val.Num())
		if !v.Val.IsInt() {
			buf = append(buf, '/')
			buf = appendInt(buf, v.Val.Denom())
		}
	case Sym:
		buf = append(buf, v.Name...)
	case Access:
		buf = append(buf, v.Fun.Name...)
		buf = append(buf, '[')
		if v.Fun.IsTime {
			buf = appendOffset(buf, "t", v.TimeOff)
			if v.Fun.NDims > 0 {
				buf = append(buf, ',')
			}
		}
		for i, o := range v.Off {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendOffset(buf, dimNames[i%len(dimNames)], o)
		}
		buf = append(buf, ']')
	case Add:
		buf = append(buf, '(')
		for i, t := range v.Terms {
			if i > 0 {
				buf = append(buf, " + "...)
			}
			buf = render(buf, t, spans)
		}
		buf = append(buf, ')')
	case Mul:
		for i, f := range v.Factors {
			if i > 0 {
				buf = append(buf, '*')
			}
			buf = render(buf, f, spans)
		}
	case Pow:
		buf = render(buf, v.Base, spans)
		buf = append(buf, "**"...)
		buf = strconv.AppendInt(buf, int64(v.Exp), 10)
	case Deriv:
		buf = append(buf, 'd')
		buf = strconv.AppendInt(buf, int64(v.Order), 10)
		buf = append(buf, '(')
		buf = render(buf, v.Target, spans)
		buf = append(buf, ")/d"...)
		buf = append(buf, derivDim(v.Dim)...)
		buf = strconv.AppendInt(buf, int64(v.Order), 10)
	}
	if spans != nil {
		(*spans)[at+1] = len(buf)
	}
	return buf
}

// appendOffset renders an index along one dimension: d, d+k or d-k.
func appendOffset(buf []byte, d string, off int) []byte {
	buf = append(buf, d...)
	if off > 0 {
		buf = append(buf, '+')
	}
	if off != 0 {
		buf = strconv.AppendInt(buf, int64(off), 10)
	}
	return buf
}

// appendInt renders x in base 10, without math/big's formatter when x fits
// an int64 (every coefficient of a real stencil does).
func appendInt(buf []byte, x *big.Int) []byte {
	if x.IsInt64() {
		return strconv.AppendInt(buf, x.Int64(), 10)
	}
	return x.Append(buf, 10)
}

// derivDim names a derivative's dimension: t for time (Dim -1).
func derivDim(dim int) string {
	if dim < 0 {
		return "t"
	}
	return dimNames[dim%len(dimNames)]
}

// NewAdd builds a flattened, constant-folded sum. A lone numeric term
// keeps its rational (shared, never copied); only folding two nonzero
// numbers allocates a new one.
func NewAdd(terms ...Expr) Expr {
	var acc numFold
	n := 0 // non-numeric terms, nested sums flattened
	for _, t := range terms {
		switch v := t.(type) {
		case Add:
			for _, s := range v.Terms {
				if num, ok := s.(Num); ok {
					acc.add(num.Val)
				} else {
					n++
				}
			}
		case Num:
			acc.add(v.Val)
		default:
			n++
		}
	}
	if acc.val != nil && acc.val.Sign() != 0 {
		n++
	} else if n == 0 {
		return Int(0)
	}
	flat := flatten(make([]Expr, 0, n), terms, false)
	if len(flat) < n {
		flat = append(flat, Num{Val: acc.val})
	}
	if n == 1 {
		return flat[0]
	}
	return Add{Terms: flat}
}

// NewMul builds a flattened, constant-folded product. A zero factor
// annihilates the product. Like NewAdd, it allocates a coefficient only
// when it folds two numbers other than 1.
func NewMul(factors ...Expr) Expr {
	var acc numFold
	n := 0 // non-numeric factors, nested products flattened
	for _, f := range factors {
		switch v := f.(type) {
		case Mul:
			for _, s := range v.Factors {
				if num, ok := s.(Num); ok {
					acc.mul(num.Val)
				} else {
					n++
				}
			}
		case Num:
			acc.mul(v.Val)
		default:
			n++
		}
	}
	coef := acc.val
	if coef == nil {
		coef = ratOne
	}
	if coef.Sign() == 0 {
		return Int(0)
	}
	lead := !isOne(coef) // the coefficient leads the factors
	switch {
	case n == 0:
		return Num{Val: coef}
	case n == 1 && !lead:
		return flatten(make([]Expr, 0, 1), factors, true)[0]
	}
	size := n
	if lead {
		size++
	}
	flat := make([]Expr, 0, size)
	if lead {
		flat = append(flat, Num{Val: coef})
	}
	return Mul{Factors: flatten(flat, factors, true)}
}

// flatten appends the non-numeric operands of a sum (mul false) or
// product (mul true) to out, those of an operand of the same kind in its
// place.
func flatten(out, ops []Expr, mul bool) []Expr {
	for _, o := range ops {
		switch v := o.(type) {
		case Num:
		case Add:
			if mul {
				out = append(out, o)
			} else {
				out = appendNonNum(out, v.Terms)
			}
		case Mul:
			if mul {
				out = appendNonNum(out, v.Factors)
			} else {
				out = append(out, o)
			}
		default:
			out = append(out, o)
		}
	}
	return out
}

// appendNonNum appends the operands that are not numbers.
func appendNonNum(out, ops []Expr) []Expr {
	for _, o := range ops {
		if _, ok := o.(Num); !ok {
			out = append(out, o)
		}
	}
	return out
}

// numFold folds the numeric operands of a sum or product. It keeps an
// operand's rational as is while the others are identities (0 in a sum, 1
// in a product) and allocates its own only when two non-identities meet,
// so the operands are never modified.
type numFold struct {
	val   *big.Rat
	owned bool
}

func (f *numFold) add(r *big.Rat) {
	switch {
	case f.val == nil || f.val.Sign() == 0:
		f.val, f.owned = r, false
	case r.Sign() == 0:
	case f.owned:
		f.val.Add(f.val, r)
	default:
		f.val, f.owned = new(big.Rat).Add(f.val, r), true
	}
}

func (f *numFold) mul(r *big.Rat) {
	switch {
	case f.val == nil || isOne(f.val):
		f.val, f.owned = r, false
	case isOne(r):
	case f.owned:
		f.val.Mul(f.val, r)
	default:
		f.val, f.owned = new(big.Rat).Mul(f.val, r), true
	}
}

// ratOne is the rational 1, shared like every Num's rational: never
// modified.
var ratOne = big.NewRat(1, 1)

// isOne reports whether r == 1 without allocating.
func isOne(r *big.Rat) bool {
	return r.IsInt() && r.Num().IsInt64() && r.Num().Int64() == 1
}

// Neg returns -e.
func Neg(e Expr) Expr { return NewMul(minusOne, e) }

var minusOne = Int(-1)

// Sub returns a - b.
func Sub(a, b Expr) Expr { return NewAdd(a, Neg(b)) }

// Div returns a / b (b raised to -1).
func Div(a, b Expr) Expr {
	if n, ok := b.(Num); ok {
		inv := new(big.Rat).Inv(n.Val)
		return NewMul(a, Num{Val: inv})
	}
	return NewMul(a, Pow{Base: b, Exp: -1})
}

// NewPow folds trivial exponents and nested powers.
func NewPow(base Expr, exp int) Expr {
	switch exp {
	case 0:
		return Int(1)
	case 1:
		return base
	}
	if p, ok := base.(Pow); ok {
		return NewPow(p.Base, p.Exp*exp)
	}
	if n, ok := base.(Num); ok && exp > 0 {
		r := big.NewRat(1, 1)
		for i := 0; i < exp; i++ {
			r.Mul(r, n.Val)
		}
		return Num{Val: r}
	}
	if n, ok := base.(Num); ok && exp < 0 && n.Val.Sign() != 0 {
		r := big.NewRat(1, 1)
		inv := new(big.Rat).Inv(n.Val)
		for i := 0; i < -exp; i++ {
			r.Mul(r, inv)
		}
		return Num{Val: r}
	}
	return Pow{Base: base, Exp: exp}
}

// Eq is an equation lhs = rhs. The devigo compiler consumes lists of Eq.
type Eq struct {
	LHS Expr
	RHS Expr
}

// String renders the equation as "lhs = rhs".
func (e Eq) String() string {
	return string(appendExpr(append(appendExpr(nil, e.LHS), " = "...), e.RHS))
}

// Walk visits every node of the expression tree in depth-first order. If fn
// returns false the walk does not descend into the node's children.
func Walk(e Expr, fn func(Expr) bool) {
	if !fn(e) {
		return
	}
	switch v := e.(type) {
	case Add:
		for _, t := range v.Terms {
			Walk(t, fn)
		}
	case Mul:
		for _, f := range v.Factors {
			Walk(f, fn)
		}
	case Pow:
		Walk(v.Base, fn)
	case Deriv:
		Walk(v.Target, fn)
	}
}

// Transform rebuilds the expression bottom-up, applying fn to every node
// after its children have been transformed.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	switch v := e.(type) {
	case Add:
		terms := make([]Expr, len(v.Terms))
		for i, t := range v.Terms {
			terms[i] = Transform(t, fn)
		}
		return fn(NewAdd(terms...))
	case Mul:
		factors := make([]Expr, len(v.Factors))
		for i, f := range v.Factors {
			factors[i] = Transform(f, fn)
		}
		return fn(NewMul(factors...))
	case Pow:
		return fn(NewPow(Transform(v.Base, fn), v.Exp))
	case Deriv:
		return fn(Deriv{Target: Transform(v.Target, fn), Dim: v.Dim, Order: v.Order, FDOrder: v.FDOrder, Side: v.Side})
	default:
		return fn(e)
	}
}

// Accesses collects every Access node in the expression, in encounter order.
func Accesses(e Expr) []Access {
	n := countAccesses(e)
	if n == 0 {
		return nil
	}
	return appendAccesses(make([]Access, 0, n), e)
}

// countAccesses returns how many Access nodes e holds.
func countAccesses(e Expr) int {
	n := 0
	switch v := e.(type) {
	case Access:
		return 1
	case Add:
		for _, t := range v.Terms {
			n += countAccesses(t)
		}
	case Mul:
		for _, f := range v.Factors {
			n += countAccesses(f)
		}
	case Pow:
		return countAccesses(v.Base)
	case Deriv:
		return countAccesses(v.Target)
	}
	return n
}

// appendAccesses appends e's Access nodes to out in encounter order.
func appendAccesses(out []Access, e Expr) []Access {
	switch v := e.(type) {
	case Access:
		return append(out, v)
	case Add:
		for _, t := range v.Terms {
			out = appendAccesses(out, t)
		}
	case Mul:
		for _, f := range v.Factors {
			out = appendAccesses(out, f)
		}
	case Pow:
		return appendAccesses(out, v.Base)
	case Deriv:
		return appendAccesses(out, v.Target)
	}
	return out
}

// Equal reports structural equality via canonical string rendering of the
// collected normal form. It is intended for tests and caching, not hot paths.
func Equal(a, b Expr) bool {
	return Collect(a).String() == Collect(b).String()
}
