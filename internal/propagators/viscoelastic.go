package propagators

import "devigo/internal/symbolic"

// Viscoelastic builds the visco-elastic propagator (paper Section IV-B4,
// Appendix A4, after Robertsson et al.): the elastic velocity–stress
// system augmented with one memory variable per stress component for a
// single standard-linear-solid relaxation mechanism,
//
//	v_i.dt    = b * d_j sigma_ij - damp*v_i
//	sigma_ii.dt = ptt*div(v) + stt*(d_i v_i - div(v)) + r_ii - damp*sigma_ii
//	sigma_ij.dt = (stt/2)*(d_i v_j + d_j v_i) + r_ij - damp*sigma_ij
//	r_ii.dt   = -its*( r_ii + (ptt - stt)*div(v) + stt*d_i v_i )
//	r_ij.dt   = -its*( r_ij + (stt/2)*(d_i v_j + d_j v_i) )
//
// with ptt = pi*tau_p_eps/tau_sigma, stt = 2*mu*tau_s_eps/tau_sigma and
// its = 1/tau_sigma precomputed as parameter fields. In 3-D this is 15
// stencil updates and a 35-field working set (the paper quotes 36),
// the highest memory footprint of the four models.
func Viscoelastic(cfg Config) (*Model, error) {
	s, err := newVelStress("viscoelastic", cfg)
	if err != nil {
		return nil, err
	}
	// Memory variables, co-located with their stress components.
	rs, err := s.tensor("r")
	if err != nil {
		return nil, err
	}
	p, err := s.params("b", "damp", "ptt", "stt", "its")
	if err != nil {
		return nil, err
	}
	b, damp, ptt, stt, its := p[0], p[1], p[2], p[3], p[4]

	// Medium: homogeneous with modest attenuation; the stress relaxation
	// time is kept well above the timestep for explicit stability.
	vp := s.c.Velocity
	vsSpeed := vp / 1.7320508075688772
	rho := 1.0
	muV := rho * vsSpeed * vsSpeed
	piV := rho * vp * vp
	dtc := criticalDt(s.g, vp)
	tauSigma := 40 * dtc
	tauPe, tauSe := 1.06, 1.09 // strain/stress relaxation ratios (Q ~ 30)
	fillConst(b, float32(1/rho))
	dampField(damp, s.c.NBL, 0.05)
	fillConst(ptt, float32(piV*tauPe))
	fillConst(stt, float32(2*muV*tauSe))
	fillConst(its, float32(1/tauSigma))

	if err := s.velocities(b, damp); err != nil {
		return nil, err
	}

	// Memory variables (read v[t+1], so they form the second cluster).
	for d := 0; d < s.nd; d++ {
		rdd := rs[d][d]
		inner := symbolic.NewAdd(
			symbolic.At(rdd.Ref),
			symbolic.NewMul(symbolic.Sub(symbolic.At(ptt.Ref), symbolic.At(stt.Ref)), s.divV(rdd)),
			symbolic.NewMul(symbolic.At(stt.Ref), s.dv(rdd, d, d)),
		)
		rhs := symbolic.Neg(symbolic.NewMul(symbolic.At(its.Ref), inner))
		if err := s.solve(rdd, rhs); err != nil {
			return nil, err
		}
	}
	for d := 0; d < s.nd; d++ {
		for e := d + 1; e < s.nd; e++ {
			rde := rs[d][e]
			inner := symbolic.NewAdd(
				symbolic.At(rde.Ref),
				symbolic.NewMul(symbolic.Rat(1, 2), symbolic.At(stt.Ref), s.strain(rde, d, e)),
			)
			rhs := symbolic.Neg(symbolic.NewMul(symbolic.At(its.Ref), inner))
			if err := s.solve(rde, rhs); err != nil {
				return nil, err
			}
		}
	}

	// Stresses (read v[t+1] and r[t+1]).
	for d := 0; d < s.nd; d++ {
		tdd := s.taus[d][d]
		rhs := symbolic.Sub(
			symbolic.NewAdd(
				symbolic.NewMul(symbolic.At(ptt.Ref), s.divV(tdd)),
				symbolic.NewMul(symbolic.At(stt.Ref), symbolic.Sub(s.dv(tdd, d, d), s.divV(tdd))),
				symbolic.ForwardStencil(rs[d][d].Ref),
			),
			symbolic.NewMul(symbolic.At(damp.Ref), symbolic.At(tdd.Ref)),
		)
		if err := s.solve(tdd, rhs); err != nil {
			return nil, err
		}
	}
	for d := 0; d < s.nd; d++ {
		for e := d + 1; e < s.nd; e++ {
			tde := s.taus[d][e]
			rhs := symbolic.Sub(
				symbolic.NewAdd(
					symbolic.NewMul(symbolic.Rat(1, 2), symbolic.At(stt.Ref), s.strain(tde, d, e)),
					symbolic.ForwardStencil(rs[d][e].Ref),
				),
				symbolic.NewMul(symbolic.At(damp.Ref), symbolic.At(tde.Ref)),
			)
			if err := s.solve(tde, rhs); err != nil {
				return nil, err
			}
		}
	}

	nTau := s.nd * (s.nd + 1) / 2
	return s.model("viscoelastic", dtc*0.85, 2*(s.nd+2*nTau)+5), nil
}
