// Package codegen emits C-like source from an IET — the textual face of
// the devigo compiler, mirroring the generated code of paper Listing 11.
// The emitted text documents exactly what a C backend would compile, and
// the tree it prints is the tree core.Operator.Apply executes: every
// haloupdate/halowait and every CORE/REMAINDER split in the source is one
// the executor performs (core's TestTreeIsTheProgram and the propagators'
// TestTTIFullOverlapsScratchCluster enforce it).
package codegen

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"devigo/internal/iet"
	"devigo/internal/ir"
	"devigo/internal/symbolic"
)

// Emitter carries the layout facts codegen needs: halo widths per field
// (for the access-alignment shift of paper Section III-d) and time buffer
// counts (for the modulo time indices t0/t1).
type Emitter struct {
	// Halo maps field name -> per-dimension halo width.
	Halo map[string][]int
	// TimeBufs maps field name -> number of time buffers (0 for
	// time-invariant parameters).
	TimeBufs map[string]int
}

// EmitC renders the callable as C-like source.
func (em *Emitter) EmitC(c iet.Callable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "void %s(...)\n{\n", c.Name)
	em.emitList(&b, c.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func (em *Emitter) emitList(b *strings.Builder, nodes []iet.Node, depth int) {
	for _, n := range nodes {
		em.emitNode(b, n, depth)
	}
}

func (em *Emitter) emitNode(b *strings.Builder, n iet.Node, depth int) {
	switch v := n.(type) {
	case iet.ScalarAssign:
		indent(b, depth)
		em.writeAssign(b, v.Name, v.Value)
	case iet.HaloSpot:
		indent(b, depth)
		fmt.Fprintf(b, "/* <HaloSpot(%s)> */\n", haloFieldList(v.Fields))
	case iet.HaloUpdateCall:
		indent(b, depth)
		async := ""
		if v.Async {
			async = "_async"
		}
		fmt.Fprintf(b, "haloupdate%s_%s(%s);\n", async, v.Mode, haloFieldList(v.Fields))
	case iet.HaloWaitCall:
		indent(b, depth)
		fmt.Fprintf(b, "halowait(%s);\n", haloFieldList(v.Fields))
	case iet.TimeLoop:
		indent(b, depth)
		b.WriteString("for (int time = time_m; time <= time_M; time += 1)\n")
		indent(b, depth)
		b.WriteString("{\n")
		em.emitList(b, v.Body, depth+1)
		indent(b, depth)
		b.WriteString("}\n")
	case iet.TimeTile:
		indent(b, depth)
		fmt.Fprintf(b, "/* communication-avoiding time tiling: deep halo exchanged every %d steps */\n", v.K)
		indent(b, depth)
		fmt.Fprintf(b, "for (int tile = time_m; tile <= time_M; tile += %d)\n", v.K)
		indent(b, depth)
		b.WriteString("{\n")
		async := ""
		if v.Update.Async {
			async = "_async"
		}
		indent(b, depth+1)
		fmt.Fprintf(b, "haloupdate_deep%s_%s(%s);\n", async, v.Update.Mode, haloTimedFieldList(v.Update.Fields))
		indent(b, depth+1)
		fmt.Fprintf(b, "for (int time = tile; time <= MIN(tile + %d, time_M); time += 1)\n", v.K-1)
		indent(b, depth+1)
		b.WriteString("{\n")
		indent(b, depth+2)
		b.WriteString("/* ghost shell shrinks by the schedule stride per substep */\n")
		em.emitList(b, v.Body, depth+2)
		indent(b, depth+1)
		b.WriteString("}\n")
		indent(b, depth)
		b.WriteString("}\n")
	case iet.LoopNest:
		em.emitNest(b, v, depth, "DOMAIN", em.nestBody(v, depth))
	case iet.OverlapSection:
		// CORE and REMAINDER are one nest run over two regions
		// (iet.LowerHalos): its body is rendered once for both.
		body := em.nestBody(v.Core, depth)
		em.emitNode(b, v.Update, depth)
		em.emitNest(b, v.Core, depth, "CORE", body)
		em.emitNode(b, v.Wait, depth)
		em.emitNest(b, v.Remainder, depth, "REMAINDER", body)
	}
}

// emitNest writes the nest's loop headers around its rendered body.
func (em *Emitter) emitNest(b *strings.Builder, nest iet.LoopNest, depth int, region string, body string) {
	d := depth
	if region != "DOMAIN" {
		indent(b, d)
		fmt.Fprintf(b, "/* %s section */\n", region)
	}
	for i, dim := range nest.Dims {
		indent(b, d)
		fmt.Fprintf(b, "/* [%s] */ for (int %s = %s_m_%s; %s <= %s_M_%s; %s += 1)\n",
			nest.Props[i], dim, dim, strings.ToLower(region), dim, dim, strings.ToLower(region), dim)
		indent(b, d)
		b.WriteString("{\n")
		d++
	}
	b.WriteString(body)
	for range nest.Dims {
		d--
		indent(b, d)
		b.WriteString("}\n")
	}
}

// nestBody renders the nest's temporaries and equations, indented to sit
// inside its loops.
func (em *Emitter) nestBody(nest iet.LoopNest, depth int) string {
	var b strings.Builder
	d := depth + len(nest.Dims)
	for _, a := range nest.Assigns {
		indent(&b, d)
		em.writeAssign(&b, a.Name, a.Value)
	}
	for _, e := range nest.Exprs {
		indent(&b, d)
		em.writeExpr(&b, e.LHS)
		b.WriteString(" = ")
		em.writeExpr(&b, e.RHS)
		b.WriteString(";\n")
	}
	return b.String()
}

func (em *Emitter) writeAssign(b *strings.Builder, name string, value symbolic.Expr) {
	b.WriteString("float ")
	b.WriteString(name)
	b.WriteString(" = ")
	em.writeExpr(b, value)
	b.WriteString(";\n")
}

func haloFieldList(fs []ir.HaloReq) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.Field
	}
	return strings.Join(parts, ",")
}

// haloTimedFieldList renders halo requirements with their time offsets —
// a time-tiled exchange names multiple buffers of the same field (e.g.
// "u[tile],u[tile-1]").
func haloTimedFieldList(fs []ir.HaloReq) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		switch {
		case f.TimeOff == 0:
			parts[i] = fmt.Sprintf("%s[tile]", f.Field)
		case f.TimeOff > 0:
			parts[i] = fmt.Sprintf("%s[tile + %d]", f.Field, f.TimeOff)
		default:
			parts[i] = fmt.Sprintf("%s[tile - %d]", f.Field, -f.TimeOff)
		}
	}
	return strings.Join(parts, ",")
}

// writeExpr renders a symbolic expression as C.
func (em *Emitter) writeExpr(b *strings.Builder, e symbolic.Expr) {
	switch v := e.(type) {
	case symbolic.Num:
		writeCFloat(b, v.Val)
	case symbolic.Sym:
		b.WriteString(v.Name)
	case symbolic.Access:
		em.writeAccess(b, v)
	case symbolic.Add:
		b.WriteByte('(')
		for i, t := range v.Terms {
			if i > 0 {
				b.WriteString(" + ")
			}
			em.writeExpr(b, t)
		}
		b.WriteByte(')')
	case symbolic.Mul:
		for i, f := range v.Factors {
			if i > 0 {
				b.WriteByte('*')
			}
			em.writeExpr(b, f)
		}
	case symbolic.Pow:
		var base strings.Builder
		em.writeExpr(&base, v.Base)
		n := v.Exp
		if n < 0 {
			b.WriteString("1.0F/")
			n = -n
		}
		b.WriteByte('(')
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte('*')
			}
			b.WriteString(base.String())
		}
		b.WriteByte(')')
	case symbolic.Deriv:
		b.WriteString("/* unexpanded derivative */")
	default:
		b.WriteByte('?')
	}
}

// writeAccess renders an aligned array access: the halo shift of paper
// Section III-d is applied here (u[t,x,y] -> u[t0][x+2][y+2]).
func (em *Emitter) writeAccess(b *strings.Builder, a symbolic.Access) {
	b.WriteString(a.Fun.Name)
	if a.Fun.IsTime {
		b.WriteString("[t")
		b.WriteString(strconv.Itoa(((a.TimeOff % a.Fun.NumBufs) + a.Fun.NumBufs) % a.Fun.NumBufs))
		b.WriteByte(']')
	}
	halo := em.Halo[a.Fun.Name]
	for d, off := range a.Off {
		shift := off
		if d < len(halo) {
			shift += halo[d]
		}
		b.WriteByte('[')
		b.WriteString(cDimNames[d])
		switch {
		case shift > 0:
			b.WriteString(" + ")
			b.WriteString(strconv.Itoa(shift))
		case shift < 0:
			b.WriteString(" - ")
			b.WriteString(strconv.Itoa(-shift))
		}
		b.WriteByte(']')
	}
}

var cDimNames = []string{"x", "y", "z"}

// writeCFloat renders a rational as a C float literal: an integer with
// ".0F", anything else as the shortest %g form of its float64 value.
func writeCFloat(b *strings.Builder, r *big.Rat) {
	if r.IsInt() {
		b.WriteString(r.Num().String())
		b.WriteString(".0F")
		return
	}
	f, _ := r.Float64()
	b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	b.WriteByte('F')
}
