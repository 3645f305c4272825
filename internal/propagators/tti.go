package propagators

import (
	"fmt"
	"math"

	"devigo/internal/field"
	"devigo/internal/symbolic"
)

// TTI builds the anisotropic acoustic (tilted transversely isotropic)
// propagator (paper Section IV-B2, Appendix A2): a coupled system of two
// scalar wavefields p and q driven by a rotated anisotropic Laplacian,
//
//	m*p.dt2 + damp*p.dt = (1+2eps)*Hp(p) + sqrt(1+2delta)*Gzz(q)
//	m*q.dt2 + damp*q.dt = sqrt(1+2delta)*Hp(p) + Gzz(q)
//
// where Gzz is the second directional derivative along the (spatially
// varying) symmetry axis and Hp = laplace - Gzz. The rotated kernel reads
// three 2-D planes of neighbours (paper Fig. 6b) and is by far the most
// arithmetically intensive of the four models.
//
// The working set counts 14 fields here: p and q (3 buffers each), m,
// damp, the two anisotropy parameter fields, and four trigonometric fields
// (the paper counts 12 by storing theta/phi as two angle grids; devigo's
// expression language has no trigonometric functions, so sin/cos are
// precomputed — docs/ARCHITECTURE.md, "Stage 1 — symbolic").
func TTI(cfg Config) (*Model, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	so, nd := b.so, b.nd
	if nd < 2 {
		return nil, fmt.Errorf("propagators: TTI needs 2 or 3 dimensions")
	}

	// Homogeneous anisotropic medium with a constant tilt.
	p, q := b.timeField("p", 2, nil), b.timeField("q", 2, nil)
	m, damp := b.param("m", 1/(b.c.Velocity*b.c.Velocity)), b.damp(0.1)
	eps, delta := 0.2, 0.1
	theta := math.Pi / 8
	epsf := b.param("epsf", 1+2*eps)              // 1 + 2*epsilon
	delf := b.param("delf", math.Sqrt(1+2*delta)) // sqrt(1 + 2*delta)
	ct, st := b.param("ct", math.Cos(theta)), b.param("st", math.Sin(theta))
	var cp, sp *field.Function
	if nd == 3 {
		phi := math.Pi / 6
		cp, sp = b.param("cp", math.Cos(phi)), b.param("sp", math.Sin(phi))
	}
	if b.err != nil {
		return nil, b.err
	}

	// axisCoeff[d] is the direction-cosine field expression of the
	// symmetry axis for dimension d.
	axisCoeff := func(d int) symbolic.Expr {
		if nd == 2 {
			// Axis in the x-z plane: (sin t, cos t).
			if d == 0 {
				return symbolic.At(st.Ref)
			}
			return symbolic.At(ct.Ref)
		}
		switch d {
		case 0:
			return symbolic.NewMul(symbolic.At(st.Ref), symbolic.At(cp.Ref))
		case 1:
			return symbolic.NewMul(symbolic.At(st.Ref), symbolic.At(sp.Ref))
		default:
			return symbolic.At(ct.Ref)
		}
	}
	// Gzz(u) = sum_d D_d( a_d * sum_e a_e D_e u ): the rotated second
	// derivative, self-adjoint discretisation (paper eq. 2).
	gzz := func(u symbolic.Expr) symbolic.Expr {
		var du []symbolic.Expr
		for e := 0; e < nd; e++ {
			du = append(du, symbolic.NewMul(axisCoeff(e), symbolic.Dx(u, e, so)))
		}
		axis := symbolic.NewAdd(du...)
		var outer []symbolic.Expr
		for d := 0; d < nd; d++ {
			outer = append(outer, symbolic.Dx(symbolic.NewMul(axisCoeff(d), axis), d, so))
		}
		return symbolic.NewAdd(outer...)
	}
	hp := func(u symbolic.Expr) symbolic.Expr {
		return symbolic.Sub(symbolic.Laplace(u, nd, so), gzz(u))
	}

	// m*u.dt2 + damp*u.dt, the left-hand side of both equations.
	lhs := func(ut symbolic.Expr) symbolic.Expr {
		return symbolic.NewAdd(
			symbolic.NewMul(symbolic.At(m.Ref), symbolic.Dt2(ut, 2)),
			symbolic.NewMul(symbolic.At(damp.Ref), symbolic.Dt(ut, 2)),
		)
	}
	pt := symbolic.At(p.Ref)
	qt := symbolic.At(q.Ref)
	b.update(symbolic.ForwardStencil(p.Ref), symbolic.Eq{LHS: lhs(pt), RHS: symbolic.NewAdd(
		symbolic.NewMul(symbolic.At(epsf.Ref), hp(pt)),
		symbolic.NewMul(symbolic.At(delf.Ref), gzz(qt)),
	)})
	b.update(symbolic.ForwardStencil(q.Ref), symbolic.Eq{LHS: lhs(qt), RHS: symbolic.NewAdd(
		symbolic.NewMul(symbolic.At(delf.Ref), hp(pt)),
		gzz(qt),
	)})

	vmaxAniso := b.c.Velocity * math.Sqrt(1+2*eps)
	return b.model("tti", []string{"p", "q"}, criticalDt(b.g, vmaxAniso)*0.7)
}
