package symbolic

import (
	"math/big"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Keyed is an expression with its key — exactly the text String renders —
// and its FlopCount, carried alongside the keyed forms of its operands.
// A compound node's key and flop count are composed from its operands'
// ("(" + a + " + " + b + ")", a + "*" + b, base + "**" + exp), so a pass
// that matches subtrees by canonical form renders each subtree once rather
// than once per enclosing node. The passes take keyed trees and return
// keyed trees, so a chain of them renders its input once: iet.Build keys
// each right-hand side, runs FactorCommon, HoistInvariants and CSE over
// the same trees, and hands CSE's keyed output to the kernel compiler with
// the loop nest. A Keyed tree holds no table of keys: it lives as long as
// the nest that carries it.
type Keyed struct {
	Expr Expr
	Key  string
	// Ops are the keyed operands in Expr's order: an Add's terms, a Mul's
	// factors, a Pow's base, a Deriv's target. Nil for a leaf.
	Ops   []Keyed
	flops int32
	// variant marks a subtree whose value varies per point: it holds an
	// Access, a Deriv or a per-point temporary (see CSE).
	variant bool
}

// Flops is the subtree's FlopCount.
func (k Keyed) Flops() int { return int(k.flops) }

// Varies reports whether the subtree's value varies per point: it holds
// an Access, a Deriv or a per-point temporary that CSE or KeyNest
// marked. A subtree that does not vary is a function of scalar symbols
// and numbers only.
func (k Keyed) Varies() bool { return k.variant }

// keyings counts KeyOf's renderings (see Keyings).
var keyings atomic.Int64

// Keyings reports how many expressions KeyOf has rendered in this
// process. A construction renders each right-hand side once, and tests
// hold it to that.
func Keyings() int64 { return keyings.Load() }

// keyBufs recycles KeyOf's rendering scratch: the text is copied into the
// keys' one string, and the spans are dropped once the tree is keyed.
var keyBufs = sync.Pool{New: func() any { return new(keyBuf) }}

type keyBuf struct {
	text  []byte
	spans []int
}

// KeyOf returns e keyed, every subtree with it. e is rendered once, and
// each subtree's key is the stretch of that rendering its text fills.
func KeyOf(e Expr) Keyed { return keyOf(e, nil) }

// keyOf is KeyOf, marking every symbol temps names as varying per point.
func keyOf(e Expr, temps map[string]bool) Keyed {
	keyings.Add(1)
	kb := keyBufs.Get().(*keyBuf)
	spans := kb.spans[:0]
	kb.text = render(kb.text[:0], e, &spans)
	n := len(spans) / 2
	kt := keyTree{text: string(kb.text), spans: spans, free: make([]Keyed, n-1), temps: temps}
	k := kt.key(e)
	kb.spans = spans
	keyBufs.Put(kb)
	return k
}

// KeyedNest is a loop nest's body keyed, as CSE leaves it: Temps[i]
// is the value of the nest's i-th per-point temporary, RHS[i] the
// right-hand side of its i-th equation. Every subtree that reads a
// temporary is marked as varying per point, like one that reads a field.
type KeyedNest struct {
	Temps []Keyed
	RHS   []Keyed
}

// KeyNest keys a loop nest's temporaries and equations the way CSE
// returns them, for a caller that holds only their expressions.
func KeyNest(assigns []Assignment, eqs []Eq) KeyedNest {
	temps := make(map[string]bool, len(assigns))
	for _, a := range assigns {
		temps[a.Name] = true
	}
	kn := KeyedNest{Temps: make([]Keyed, len(assigns)), RHS: make([]Keyed, len(eqs))}
	for i, a := range assigns {
		kn.Temps[i] = keyOf(a.Value, temps)
	}
	for i, e := range eqs {
		kn.RHS[i] = keyOf(e.RHS, temps)
	}
	return kn
}

// keyTree keys the nodes of one rendered expression: render recorded a
// span of text per node, in pre-order, and every node's operands take the
// next stretch of one slice of Keyed.
type keyTree struct {
	text  string
	spans []int
	span  int     // the next node's span, in pre-order
	free  []Keyed // operand slots not yet taken
	temps map[string]bool
}

func (kt *keyTree) key(e Expr) Keyed {
	i := kt.span
	kt.span++
	k := Keyed{Expr: e, Key: kt.text[kt.spans[2*i]:kt.spans[2*i+1]]}
	var ops []Expr
	switch v := e.(type) {
	case Add:
		ops = v.Terms
	case Mul:
		ops = v.Factors
	case Pow:
		k.Ops = kt.take(1)
		k.Ops[0] = kt.key(v.Base)
	case Deriv:
		k.Ops = kt.take(1)
		k.Ops[0] = kt.key(v.Target)
	case Access:
		k.variant = true
		return k
	case Sym:
		k.variant = kt.temps[v.Name]
		return k
	default:
		return k
	}
	if ops != nil {
		k.Ops = kt.take(len(ops))
		for j, o := range ops {
			k.Ops[j] = kt.key(o)
		}
	}
	k.tally()
	return k
}

// take hands out n operand slots.
func (kt *keyTree) take(n int) []Keyed {
	ops := kt.free[:n:n]
	kt.free = kt.free[n:]
	return ops
}

// leafKey keys a Num, Sym or Access.
func leafKey(e Expr) Keyed {
	switch v := e.(type) {
	case Sym:
		return Keyed{Expr: e, Key: v.Name}
	case Access:
		var buf [32]byte
		return Keyed{Expr: e, Key: string(appendExpr(buf[:0], e)), variant: true}
	}
	var buf [32]byte
	return Keyed{Expr: e, Key: string(appendExpr(buf[:0], e))}
}

// tally sets a compound node's flop count and variant mark from its
// operands'.
func (k *Keyed) tally() {
	k.flops, k.variant = 0, false
	for _, o := range k.Ops {
		k.flops += o.flops
		k.variant = k.variant || o.variant
	}
	switch v := k.Expr.(type) {
	case Add, Mul:
		k.flops += int32(len(k.Ops) - 1)
	case Pow:
		k.flops += int32(max(v.Exp, -v.Exp))
	case Deriv:
		// A derivative costs what its stencil costs, not its target.
		k.flops = int32(FlopCount(v))
		k.variant = true
	}
}

// compose keys the compound node e from its keyed operands ops.
func compose(e Expr, ops []Keyed) Keyed {
	k := Keyed{Expr: e, Ops: ops}
	k.tally()
	n := 0
	for _, o := range ops {
		n += len(o.Key)
	}
	var b strings.Builder
	switch v := e.(type) {
	case Add:
		b.Grow(n + 3*len(ops))
		b.WriteByte('(')
		for i, o := range ops {
			if i > 0 {
				b.WriteString(" + ")
			}
			b.WriteString(o.Key)
		}
		b.WriteByte(')')
	case Mul:
		b.Grow(n + len(ops))
		for i, o := range ops {
			if i > 0 {
				b.WriteByte('*')
			}
			b.WriteString(o.Key)
		}
	case Pow:
		b.Grow(n + 6)
		b.WriteString(ops[0].Key)
		b.WriteString("**")
		b.WriteString(strconv.Itoa(v.Exp))
	case Deriv:
		order := strconv.Itoa(v.Order)
		b.Grow(n + 12)
		b.WriteByte('d')
		b.WriteString(order)
		b.WriteByte('(')
		b.WriteString(ops[0].Key)
		b.WriteString(")/d")
		b.WriteString(derivDim(v.Dim))
		b.WriteString(order)
	}
	k.Key = b.String()
	return k
}

// Group keys the sum (mul false) or product (mul true) of ops as they
// stand, without the constructors' flattening and folding: the key of an
// evaluation that groups a node's leading operands.
func Group(ops []Keyed, mul bool) Keyed {
	es := make([]Expr, len(ops))
	for i, o := range ops {
		es[i] = o.Expr
	}
	if mul {
		return compose(Mul{Factors: es}, ops)
	}
	return compose(Add{Terms: es}, ops)
}

// addKeyed returns NewAdd over the operands, keyed.
func addKeyed(ops []Keyed) Keyed {
	terms := make([]Expr, len(ops))
	for i, o := range ops {
		terms[i] = o.Expr
	}
	if keepsOperands(ops, false) {
		return compose(Add{Terms: terms}, ops)
	}
	return rekey(NewAdd(terms...), ops, false)
}

// mulKeyed returns NewMul over the operands, keyed.
func mulKeyed(ops []Keyed) Keyed {
	factors := make([]Expr, len(ops))
	for i, o := range ops {
		factors[i] = o.Expr
	}
	if keepsOperands(ops, true) {
		return compose(Mul{Factors: factors}, ops)
	}
	return rekey(NewMul(factors...), ops, true)
}

// keepsOperands reports whether NewAdd (mul false) or NewMul (mul true)
// over ops builds a node whose operands are ops exactly: there are two or
// more, none of the constructor's own kind (nothing to flatten), and at
// most one number, which the constructor would keep where it is — a
// nonzero last term of a sum, a leading product coefficient other than 0
// and 1. This is the shape every canonical tree has, so a rebuild keeps
// its operands' keys without looking them up.
func keepsOperands(ops []Keyed, mul bool) bool {
	if len(ops) < 2 {
		return false
	}
	for i, o := range ops {
		switch v := o.Expr.(type) {
		case Add:
			if !mul {
				return false
			}
		case Mul:
			if mul {
				return false
			}
		case Num:
			switch {
			case mul && (i != 0 || v.Val.Sign() == 0 || isOne(v.Val)):
				return false
			case !mul && (i != len(ops)-1 || v.Val.Sign() == 0):
				return false
			}
		}
	}
	return true
}

// rekey keys r, the NewAdd (mul false) or NewMul (mul true) of ops, for
// the shapes keepsOperands rejects. The constructors flatten operands of
// their own kind one level, keep the non-numeric operands in order and
// fold the numbers into one; so r is a number, or the single non-numeric
// operand left, or a fresh node whose non-numeric operands are those
// kept, in order, beside the folded number.
func rekey(r Expr, ops []Keyed, mul bool) Keyed {
	var kept []Keyed
	var nums []*big.Rat
	for i, o := range ops {
		sub := ops[i : i+1]
		switch o.Expr.(type) {
		case Add:
			if !mul {
				sub = o.Ops
			}
		case Mul:
			if mul {
				sub = o.Ops
			}
		}
		for _, s := range sub {
			if n, ok := s.Expr.(Num); ok {
				nums = append(nums, n.Val)
			} else {
				kept = append(kept, s)
			}
		}
	}
	if _, ok := r.(Num); ok {
		return leafKey(r)
	}
	if len(kept) == 1 && foldIsIdentity(nums, mul) {
		return kept[0]
	}
	var rOps []Expr
	switch v := r.(type) {
	case Add:
		rOps = v.Terms
	case Mul:
		rOps = v.Factors
	}
	ks := make([]Keyed, len(rOps))
	j := 0
	for i, o := range rOps {
		if _, ok := o.(Num); ok {
			ks[i] = leafKey(o)
		} else {
			ks[i] = kept[j]
			j++
		}
	}
	return compose(r, ks)
}

// foldIsIdentity reports whether the numbers fold to the identity of the
// sum (0) or product (1), so that the constructor drops the folded number.
func foldIsIdentity(nums []*big.Rat, mul bool) bool {
	var acc numFold
	for _, r := range nums {
		if mul {
			acc.mul(r)
		} else {
			acc.add(r)
		}
	}
	switch {
	case acc.val == nil:
		return true
	case mul:
		return isOne(acc.val)
	default:
		return acc.val.Sign() == 0
	}
}

// powKeyed returns NewPow(base, exp), keyed. It follows NewPow's folds:
// exponent 0 or a numeric base gives a number, exponent 1 the base, and a
// power of a power multiplies the exponents.
func powKeyed(base Keyed, exp int) Keyed {
	if exp == 1 {
		return base
	}
	r := NewPow(base.Expr, exp)
	if _, ok := r.(Num); ok {
		return leafKey(r)
	}
	if p, ok := base.Expr.(Pow); ok {
		return powKeyed(base.Ops[0], p.Exp*exp)
	}
	return compose(r, []Keyed{base})
}

// transformKeyed is Transform over a keyed tree: it hands fn every node
// bottom-up, after its operands were transformed, and returns the result
// with whether it differs from k. fn returns its replacement for the node
// and whether it replaced it. A node whose operands all came back
// unchanged is the node Transform's rebuild would make (keepsOperands, and
// its Pow and Deriv counterparts, hold) and is reused with its key; any
// other node is rebuilt through the constructors and keyed from its
// operands' keys. Either way the result is Transform's, node for node.
func transformKeyed(k Keyed, fn func(Keyed) (Keyed, bool)) (Keyed, bool) {
	n, changed := k, false
	switch v := k.Expr.(type) {
	case Add, Mul:
		_, mul := v.(Mul)
		var ops []Keyed // the transformed operands, once one changed
		for i, o := range k.Ops {
			t, c := transformKeyed(o, fn)
			if c && ops == nil {
				ops = make([]Keyed, len(k.Ops))
				copy(ops, k.Ops[:i])
			}
			if ops != nil {
				ops[i] = t
			}
		}
		if ops == nil && !keepsOperands(k.Ops, mul) {
			ops = k.Ops
		}
		switch {
		case ops == nil:
		case mul:
			n, changed = mulKeyed(ops), true
		default:
			n, changed = addKeyed(ops), true
		}
	case Pow:
		base, c := transformKeyed(k.Ops[0], fn)
		if c || !keepsBase(v) {
			n, changed = powKeyed(base, v.Exp), true
		}
	case Deriv:
		if t, c := transformKeyed(k.Ops[0], fn); c {
			d := Deriv{Target: t.Expr, Dim: v.Dim, Order: v.Order, FDOrder: v.FDOrder, Side: v.Side}
			n, changed = compose(d, []Keyed{t}), true
		}
	}
	r, replaced := fn(n)
	return r, changed || replaced
}

// keepsBase reports whether NewPow rebuilds p as it is: no exponent to
// fold away and no power or number base to fold into.
func keepsBase(p Pow) bool {
	switch p.Base.(type) {
	case Pow, Num:
		return false
	}
	return p.Exp != 0 && p.Exp != 1
}
