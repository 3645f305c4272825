package symbolic

import (
	"sort"
	"strconv"
)

// Assignment is a scalar temporary produced by CSE / invariant hoisting:
// Name = Value.
type Assignment struct {
	Name  string
	Value Expr
}

// HoistInvariants extracts maximal subexpressions that contain no Access and
// no time-varying quantity — pure functions of scalar symbols such as
// 1/(h_x*h_x) — into temporaries evaluated once outside all loops. It mirrors
// the loop-invariant code motion pass of the Devito Cluster layer (the r0,
// r1, r2 temporaries of paper Listing 11). Subexpressions are matched by key:
// the pass takes keyed trees and returns them keyed (see Keyed).
func HoistInvariants(ks []Keyed, nextTemp *int) ([]Assignment, []Keyed) {
	var assigns []Assignment
	seen := map[string]string{} // key -> temp name
	hoist := func(n Keyed) (Keyed, bool) {
		if !worthHoisting(n) {
			return n, false
		}
		name, ok := seen[n.Key]
		if !ok {
			name = "r" + strconv.Itoa(*nextTemp)
			*nextTemp++
			seen[n.Key] = name
			assigns = append(assigns, Assignment{Name: name, Value: n.Expr})
		}
		return leafKey(S(name)), true
	}
	out := make([]Keyed, len(ks))
	for i, k := range ks {
		out[i], _ = transformKeyed(k, hoist)
	}
	return assigns, out
}

// worthHoisting reports whether n is an invariant compound expression whose
// evaluation costs at least one flop.
func worthHoisting(n Keyed) bool {
	return isCompound(n.Expr) && n.flops >= 1 && !n.variant
}

// CSE performs common-subexpression elimination across a set of expressions:
// compound subexpressions that occur at least twice (by canonical form) are
// extracted into shared temporaries, innermost first. Temporaries may
// reference fields and are therefore evaluated inside the loop nest, unlike
// HoistInvariants results. Subexpressions are matched by key (see Keyed).
// It returns the nest body keyed: the temporaries' values and the
// rewritten expressions, with every reference to a temporary marked as
// varying per point (a temporary is evaluated at each point, so nothing
// that reads one is a bind-time scalar).
func CSE(ks []Keyed, nextTemp *int) ([]Assignment, KeyedNest) {
	counts := map[string]int{}
	reprs := map[string]Keyed{}
	var count func(k Keyed)
	count = func(k Keyed) {
		if !isCompound(k.Expr) {
			return
		}
		for _, o := range k.Ops {
			count(o)
		}
		if k.flops >= 2 {
			counts[k.Key]++
			reprs[k.Key] = k
		}
	}
	for _, k := range ks {
		count(k)
	}
	// Candidates in deterministic order, smallest (innermost) first so that
	// later extractions can reference earlier temporaries.
	var keys []string
	for k, c := range counts {
		if c >= 2 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	var assigns []Assignment
	temps := make([]Keyed, 0, len(keys))
	names := map[string]string{}
	// A node is matched by the key of its rebuilt form, after its operands
	// were replaced: a candidate holding an earlier candidate no longer has
	// its own (pre-replacement) key, so it stays inline wherever it occurs.
	replace := func(n Keyed) (Keyed, bool) {
		if isCompound(n.Expr) {
			if name, ok := names[n.Key]; ok {
				return Keyed{Expr: S(name), Key: name, variant: true}, true
			}
		}
		return n, false
	}
	for _, k := range keys {
		val, _ := transformKeyed(reprs[k], replace)
		name := "r" + strconv.Itoa(*nextTemp)
		*nextTemp++
		names[k] = name
		assigns = append(assigns, Assignment{Name: name, Value: val.Expr})
		temps = append(temps, val)
	}
	out := make([]Keyed, len(ks))
	for i, k := range ks {
		out[i], _ = transformKeyed(k, replace)
	}
	return assigns, KeyedNest{Temps: temps, RHS: out}
}

func isCompound(e Expr) bool {
	switch e.(type) {
	case Add, Mul, Pow:
		return true
	}
	return false
}
