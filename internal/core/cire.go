package core

import (
	"fmt"
	"strconv"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/symbolic"
)

// applyCIRE implements cross-iteration redundancy elimination (paper
// Section II: "extracting increments to eliminate cross-iteration
// redundancy (CIRE)"), the flop-reduction pass that makes rotated
// (TTI-style) Laplacians affordable. Two rewrite rules run bottom-up:
//
//  1. a derivative nested inside another derivative's target is
//     materialised into a scratch field (otherwise it would be
//     re-evaluated at every tap of the outer stencil);
//  2. a compound (non-access) derivative target is materialised too, so
//     the outer stencil taps read a single precomputed value.
//
// Scratch fields are recomputed redundantly over an extended box (the
// local domain widened transitively by the consumers' stencil radii) so
// that no halo exchange is needed for them — exactly Devito's strategy
// for CIRE temporaries. The required extension per scratch field is
// returned so the operator can size the compute boxes, and the scratch
// fields' storage needs come back as specs for allocScratch: the pass
// reads no storage, so its result serves every operator built from the
// same equations. The equations come back with their derivatives expanded
// — the pass expands each one once for its own analysis — ready for
// ir.LowerExpanded.
func applyCIRE(eqs []symbolic.Eq, nd int) ([]symbolic.Eq, []scratchField, map[string]int) {

	type scratchDef struct {
		name     string
		expanded symbolic.Expr // the scratch expression, derivatives expanded
	}
	var defs []scratchDef
	byKey := map[string]string{}
	isScratch := map[string]bool{}

	// Each scratch expression is expanded once: its expansion keys it, and
	// the extension and halo sizing below read the same expansion.
	extract := func(e symbolic.Expr) symbolic.Expr {
		expanded := symbolic.ExpandDerivatives(e)
		key := expanded.String()
		name, ok := byKey[key]
		if !ok {
			name = "cire" + strconv.Itoa(len(defs))
			byKey[key] = name
			isScratch[name] = true
			defs = append(defs, scratchDef{name: name, expanded: expanded})
		}
		return symbolic.At(scratchRef(name, nd))
	}

	// bareAccess reports whether the expression needs no materialisation
	// as a derivative target.
	bareAccess := func(e symbolic.Expr) bool {
		switch e.(type) {
		case symbolic.Access, symbolic.Sym, symbolic.Num:
			return true
		}
		return false
	}

	var rewrite func(e symbolic.Expr, insideDeriv bool) symbolic.Expr
	rewrite = func(e symbolic.Expr, insideDeriv bool) symbolic.Expr {
		switch v := e.(type) {
		case symbolic.Deriv:
			target := rewrite(v.Target, true)
			d := symbolic.Deriv{Target: target, Dim: v.Dim, Order: v.Order,
				FDOrder: v.FDOrder, Side: v.Side}
			if insideDeriv {
				// Rule 1: nested derivative -> scratch.
				return extract(d)
			}
			if !bareAccess(target) {
				// Rule 2: compound target -> scratch, derivative stays.
				d.Target = extract(target)
			}
			return d
		case symbolic.Add:
			terms := make([]symbolic.Expr, len(v.Terms))
			for i, tm := range v.Terms {
				terms[i] = rewrite(tm, insideDeriv)
			}
			return symbolic.NewAdd(terms...)
		case symbolic.Mul:
			fs := make([]symbolic.Expr, len(v.Factors))
			for i, f := range v.Factors {
				fs[i] = rewrite(f, insideDeriv)
			}
			return symbolic.NewMul(fs...)
		case symbolic.Pow:
			return symbolic.NewPow(rewrite(v.Base, insideDeriv), v.Exp)
		default:
			return e
		}
	}

	out := make([]symbolic.Eq, len(eqs))
	for i, e := range eqs {
		out[i] = symbolic.Eq{LHS: e.LHS, RHS: rewrite(e.RHS, false)}
	}
	if len(defs) == 0 {
		for i, e := range eqs {
			out[i] = symbolic.Eq{LHS: e.LHS, RHS: symbolic.ExpandDerivatives(e.RHS)}
		}
		return out, nil, nil
	}
	for i := range out {
		out[i].RHS = symbolic.ExpandDerivatives(out[i].RHS)
	}

	// Extensions propagate transitively: a scratch read by another scratch
	// computed over an extended box must itself be valid there. Iterate to
	// a fixed point (chains are short: two levels for TTI).
	extension := map[string]int{}
	type reader struct {
		writes string // scratch name written by the eq, "" for finals
		reads  []symbolic.Access
	}
	var readers []reader
	for _, d := range defs {
		readers = append(readers, reader{writes: d.name, reads: symbolic.Accesses(d.expanded)})
	}
	for _, e := range out {
		readers = append(readers, reader{reads: symbolic.Accesses(e.RHS)})
	}
	for changed := true; changed; {
		changed = false
		for _, r := range readers {
			extWriter := 0
			if r.writes != "" {
				extWriter = extension[r.writes]
			}
			for _, a := range r.reads {
				if !isScratch[a.Fun.Name] {
					continue
				}
				radius := 0
				for _, o := range a.Off {
					if o < 0 {
						o = -o
					}
					if o > radius {
						radius = o
					}
				}
				if need := radius + extWriter; need > extension[a.Fun.Name] {
					extension[a.Fun.Name] = need
					changed = true
				}
			}
		}
	}

	// Scratch storage needs a halo wide enough for the extended writes plus
	// the scratch expression's own read radius.
	scratch := make([]scratchField, len(defs))
	scratchEqs := make([]symbolic.Eq, len(defs))
	for i, d := range defs {
		scratch[i] = scratchField{
			ref:  scratchRef(d.name, nd),
			halo: max(extension[d.name]+maxRadius(d.expanded, nd), 1),
		}
		scratchEqs[i] = symbolic.Eq{LHS: symbolic.At(scratch[i].ref), RHS: d.expanded}
	}
	return append(scratchEqs, out...), scratch, extension
}

// scratchField is one CIRE scratch field of a lowered schedule: the
// reference its accesses and its storage share, and the ghost width its
// storage needs.
type scratchField struct {
	ref  *symbolic.FuncRef
	halo int
}

// allocScratch gives an operator its own storage for a schedule's CIRE
// scratch fields, registered in fields under their names.
func allocScratch(scratch []scratchField, fields map[string]*field.Function, g *grid.Grid, ctx *Context) error {
	for _, s := range scratch {
		cfg := &field.Config{HaloWidth: s.halo}
		if ctx != nil {
			cfg.Decomp = ctx.Decomp
			cfg.Rank = ctx.Comm.Rank()
		}
		f, err := field.NewFunction(s.ref.Name, g, s.halo, cfg)
		if err != nil {
			return fmt.Errorf("core: allocating CIRE scratch: %w", err)
		}
		f.Ref = s.ref
		fields[s.ref.Name] = f
	}
	return nil
}

// scratchRef builds the canonical FuncRef for a scratch field; accesses
// and storage must agree on the name-based identity.
func scratchRef(name string, nd int) *symbolic.FuncRef {
	return &symbolic.FuncRef{Name: name, NDims: nd}
}

func maxRadius(e symbolic.Expr, nd int) int {
	r := symbolic.StencilRadius(e, nd)
	m := 0
	for _, v := range r {
		if v > m {
			m = v
		}
	}
	return m
}
