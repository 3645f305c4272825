package propagators

import "devigo/internal/symbolic"

// Elastic builds the isotropic elastic wave propagator (paper Section
// IV-B3, Appendix A3): the first-order velocity–stress system of Virieux
// on a fully staggered grid,
//
//	v.dt   = b * div(tau)            - damp*v
//	tau.dt = lam*tr(grad v)*I + mu*(grad v + grad v^T) - damp*tau
//
// In 3-D the working set is 22 fields: 3 velocity components and 6 stress
// components with 2 time buffers each, plus lam, mu, b, damp.
func Elastic(cfg Config) (*Model, error) {
	s, err := newVelStress("elastic", cfg)
	if err != nil {
		return nil, err
	}
	// Homogeneous medium: vp = Velocity, vs = vp/sqrt(3), rho = 1.
	vp := s.c.Velocity
	vsSpeed := vp / 1.7320508075688772
	rho := 1.0
	muV := rho * vsSpeed * vsSpeed
	lamV := rho*vp*vp - 2*muV
	lam, mu, b := s.param("lam", lamV), s.param("mu", muV), s.param("b", 1/rho)
	damp := s.damp(0.05)
	if s.err != nil {
		return nil, s.err
	}

	s.velocities(b, damp)

	// Normal stresses: tau_dd.dt = lam*div(v) + 2mu*D_d v_d - damp*tau_dd.
	for d := 0; d < s.nd; d++ {
		tdd := s.taus[d][d]
		s.solve(tdd, symbolic.Sub(
			symbolic.NewAdd(
				symbolic.NewMul(symbolic.At(lam.Ref), s.divV(tdd)),
				symbolic.NewMul(symbolic.Int(2), symbolic.At(mu.Ref), s.dv(tdd, d, d)),
			),
			symbolic.NewMul(symbolic.At(damp.Ref), symbolic.At(tdd.Ref)),
		))
	}

	// Shear stresses: tau_de.dt = mu*(D_e v_d + D_d v_e) - damp*tau_de.
	for d := 0; d < s.nd; d++ {
		for e := d + 1; e < s.nd; e++ {
			tde := s.taus[d][e]
			s.solve(tde, symbolic.Sub(
				symbolic.NewMul(symbolic.At(mu.Ref), s.strain(tde, d, e)),
				symbolic.NewMul(symbolic.At(damp.Ref), symbolic.At(tde.Ref)),
			))
		}
	}

	// A stricter CFL for the coupled system.
	return s.model("elastic", s.normalStresses(), criticalDt(s.g, vp)*0.9)
}
