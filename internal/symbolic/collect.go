package symbolic

import (
	"math/big"
	"sort"
	"strconv"
)

// Collect normalises an expression into a canonical sum-of-products form:
// like terms are merged (their rational coefficients added), factors inside
// each product are sorted, and zero terms are dropped. Collect is the
// workhorse behind Equal, Solve and the flop-reduction passes.
func Collect(e Expr) Expr {
	e = expandProducts(e)
	terms := addTerms(e)
	type entry struct {
		coef  *big.Rat
		owned bool     // coef is this entry's own, not a term's
		rest  []factor // sorted non-numeric factors
	}
	merged := map[string]*entry{}
	var order []string
	for _, t := range terms {
		coef, rest := splitCoef(t)
		key := productKey(rest)
		if ent, ok := merged[key]; ok {
			if !ent.owned {
				ent.coef, ent.owned = new(big.Rat).Set(ent.coef), true
			}
			ent.coef.Add(ent.coef, coef)
		} else {
			merged[key] = &entry{coef: coef, rest: rest}
			order = append(order, key)
		}
	}
	sort.Strings(order)
	out := make([]Expr, 0, len(order))
	for _, key := range order {
		ent := merged[key]
		if ent.coef.Sign() == 0 {
			continue
		}
		factors := make([]Expr, 0, len(ent.rest)+1)
		if !isOne(ent.coef) || len(ent.rest) == 0 {
			factors = append(factors, Num{Val: ent.coef})
		}
		for _, f := range ent.rest {
			factors = append(factors, f.e)
		}
		out = append(out, NewMul(factors...))
	}
	return NewAdd(out...)
}

// expandProducts distributes products over sums so that the whole tree
// becomes a flat sum of products: (a+b)*c -> a*c + b*c. Pow with positive
// small exponents of sums is expanded by repeated multiplication.
func expandProducts(e Expr) Expr {
	switch v := e.(type) {
	case Add:
		terms := make([]Expr, len(v.Terms))
		for i, t := range v.Terms {
			terms[i] = expandProducts(t)
		}
		return NewAdd(terms...)
	case Mul:
		// Expand children first, then distribute: one product per choice
		// of a term from every factor, the last factor's term varying
		// fastest. Expanded factors hold no product inside a product, so
		// one NewMul over a choice is the left-to-right fold of NewMul
		// that multiplying out factor by factor would make.
		factors := make([]Expr, len(v.Factors))
		sums := false
		for i, f := range v.Factors {
			factors[i] = expandProducts(f)
			_, isAdd := factors[i].(Add)
			sums = sums || isAdd
		}
		if !sums {
			return NewAdd(NewMul(factors...))
		}
		terms := make([][]Expr, len(factors))
		n := 1
		for i, f := range factors {
			terms[i] = addTerms(f)
			n *= len(terms[i])
		}
		out := make([]Expr, 0, n)
		pick := make([]int, len(terms))
		for n > 0 {
			for i, ts := range terms {
				factors[i] = ts[pick[i]]
			}
			out = append(out, NewMul(factors...))
			i := len(pick) - 1
			for ; i >= 0; i-- {
				if pick[i]++; pick[i] < len(terms[i]) {
					break
				}
				pick[i] = 0
			}
			if i < 0 {
				break
			}
		}
		return NewAdd(out...)
	case Pow:
		base := expandProducts(v.Base)
		if a, ok := base.(Add); ok && v.Exp > 1 && v.Exp <= 4 {
			prod := Expr(a)
			for i := 1; i < v.Exp; i++ {
				prod = expandProducts(NewMul(prod, a))
			}
			return prod
		}
		return NewPow(base, v.Exp)
	case Deriv:
		return Deriv{Target: expandProducts(v.Target), Dim: v.Dim, Order: v.Order, FDOrder: v.FDOrder, Side: v.Side}
	default:
		return e
	}
}

// addTerms returns the additive terms of e (e itself if not a sum).
func addTerms(e Expr) []Expr {
	if a, ok := e.(Add); ok {
		return a.Terms
	}
	return []Expr{e}
}

// factor is a non-numeric factor of a term with its key (its String()).
type factor struct {
	e   Expr
	key string
}

// splitCoef splits a term into its rational coefficient and the remaining
// factors, sorted by key. Each factor is rendered once, not once per
// comparison. The coefficient is the term's own rational when it has one
// numeric factor (ratOne when it has none): the caller must not modify it.
func splitCoef(t Expr) (*big.Rat, []factor) {
	factors := []Expr{t}
	if m, ok := t.(Mul); ok {
		factors = m.Factors
	}
	var coef numFold
	rest := make([]factor, 0, len(factors))
	for _, f := range factors {
		if n, ok := f.(Num); ok {
			coef.mul(n.Val)
		} else {
			rest = append(rest, factor{e: f, key: exprKey(f)})
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].key < rest[j].key })
	if coef.val == nil {
		return ratOne, rest
	}
	return coef.val, rest
}

// exprKey returns e's key, the text String renders: a symbol's name as
// is, anything else rendered once.
func exprKey(e Expr) string {
	if s, ok := e.(Sym); ok {
		return s.Name
	}
	var buf [64]byte
	return string(appendExpr(buf[:0], e))
}

// productKey joins the sorted factors' keys with "*": the key of their
// product.
func productKey(rest []factor) string {
	var arr [128]byte
	buf := arr[:0]
	for i, r := range rest {
		if i > 0 {
			buf = append(buf, '*')
		}
		buf = append(buf, r.key...)
	}
	return string(buf)
}

// CoefficientOf returns (a, b) such that Collect(e) == a*target + b, where
// target does not occur inside b and a is free of target. It returns ok=false
// if e is non-linear in target (target appears squared or inside a Pow).
// target is matched structurally (canonical string form).
func CoefficientOf(e Expr, target Expr) (a, b Expr, ok bool) {
	tkey := exprKey(target)
	e = Collect(e)
	var aTerms, bTerms []Expr
	for _, t := range addTerms(e) {
		coef, rest := splitCoef(t)
		cnt := 0
		var others []Expr
		for _, r := range rest {
			if r.key == tkey {
				cnt++
			} else {
				// Non-linearity hidden in a Pow of target: its key is the
				// target's followed by "**" and the exponent.
				if p, isPow := r.e.(Pow); isPow && r.key == tkey+"**"+strconv.Itoa(p.Exp) {
					return nil, nil, false
				}
				others = append(others, r.e)
			}
		}
		switch cnt {
		case 0:
			bTerms = append(bTerms, t)
		case 1:
			factors := append([]Expr{Num{Val: coef}}, others...)
			aTerms = append(aTerms, NewMul(factors...))
		default:
			return nil, nil, false
		}
	}
	return NewAdd(aTerms...), NewAdd(bTerms...), true
}

// Solve solves eq (interpreted as LHS - RHS = 0) for target, which must
// appear linearly. It mirrors Devito's `solve(eq, u.forward)`.
func Solve(eq Eq, target Expr) (Expr, error) {
	zeroed := Sub(eq.LHS, eq.RHS)
	// Time derivatives must be expanded so the target access (u at t+1)
	// becomes visible; spatial derivatives stay symbolic so later passes
	// (CIRE) can still see their structure.
	zeroed = ExpandTimeDerivatives(zeroed)
	a, b, ok := CoefficientOf(zeroed, target)
	if !ok {
		return nil, &SolveError{Target: exprKey(target), Reason: "equation is non-linear in target"}
	}
	if isZero(a) {
		return nil, &SolveError{Target: exprKey(target), Reason: "target does not appear in equation"}
	}
	// solution = -b / a
	return Collect(Div(Neg(b), a)), nil
}

// SolveError reports why a symbolic solve failed.
type SolveError struct {
	Target string
	Reason string
}

// Error implements the error interface.
func (e *SolveError) Error() string {
	return "symbolic: cannot solve for " + e.Target + ": " + e.Reason
}

func isZero(e Expr) bool {
	n, ok := e.(Num)
	return ok && n.Val.Sign() == 0
}
