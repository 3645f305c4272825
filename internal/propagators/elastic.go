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
	p, err := s.params("lam", "mu", "b", "damp")
	if err != nil {
		return nil, err
	}
	lam, mu, b, damp := p[0], p[1], p[2], p[3]

	// Homogeneous medium: vp = Velocity, vs = vp/sqrt(3), rho = 1.
	vp := s.c.Velocity
	vsSpeed := vp / 1.7320508075688772
	rho := 1.0
	muV := rho * vsSpeed * vsSpeed
	lamV := rho*vp*vp - 2*muV
	fillConst(lam, float32(lamV))
	fillConst(mu, float32(muV))
	fillConst(b, float32(1/rho))
	dampField(damp, s.c.NBL, 0.05)

	if err := s.velocities(b, damp); err != nil {
		return nil, err
	}

	// Normal stresses: tau_dd.dt = lam*div(v) + 2mu*D_d v_d - damp*tau_dd.
	for d := 0; d < s.nd; d++ {
		tdd := s.taus[d][d]
		rhs := symbolic.Sub(
			symbolic.NewAdd(
				symbolic.NewMul(symbolic.At(lam.Ref), s.divV(tdd)),
				symbolic.NewMul(symbolic.Int(2), symbolic.At(mu.Ref), s.dv(tdd, d, d)),
			),
			symbolic.NewMul(symbolic.At(damp.Ref), symbolic.At(tdd.Ref)),
		)
		if err := s.solve(tdd, rhs); err != nil {
			return nil, err
		}
	}

	// Shear stresses: tau_de.dt = mu*(D_e v_d + D_d v_e) - damp*tau_de.
	for d := 0; d < s.nd; d++ {
		for e := d + 1; e < s.nd; e++ {
			tde := s.taus[d][e]
			rhs := symbolic.Sub(
				symbolic.NewMul(symbolic.At(mu.Ref), s.strain(tde, d, e)),
				symbolic.NewMul(symbolic.At(damp.Ref), symbolic.At(tde.Ref)),
			)
			if err := s.solve(tde, rhs); err != nil {
				return nil, err
			}
		}
	}

	nTau := s.nd * (s.nd + 1) / 2
	// A stricter CFL for the coupled system.
	return s.model("elastic", criticalDt(s.g, vp)*0.9, 2*(s.nd+nTau)+4), nil
}
