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
	rs := s.tensor("r")

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
	b, damp := s.param("b", 1/rho), s.damp(0.05)
	ptt, stt, its := s.param("ptt", piV*tauPe), s.param("stt", 2*muV*tauSe), s.param("its", 1/tauSigma)
	if s.err != nil {
		return nil, s.err
	}

	s.velocities(b, damp)

	// Memory variables (read v[t+1], so they form the second cluster).
	for d := 0; d < s.nd; d++ {
		rdd := rs[d][d]
		inner := symbolic.NewAdd(
			symbolic.At(rdd.Ref),
			symbolic.NewMul(symbolic.Sub(symbolic.At(ptt.Ref), symbolic.At(stt.Ref)), s.divV(rdd)),
			symbolic.NewMul(symbolic.At(stt.Ref), s.dv(rdd, d, d)),
		)
		s.solve(rdd, symbolic.Neg(symbolic.NewMul(symbolic.At(its.Ref), inner)))
	}
	for d := 0; d < s.nd; d++ {
		for e := d + 1; e < s.nd; e++ {
			rde := rs[d][e]
			inner := symbolic.NewAdd(
				symbolic.At(rde.Ref),
				symbolic.NewMul(symbolic.Rat(1, 2), symbolic.At(stt.Ref), s.strain(rde, d, e)),
			)
			s.solve(rde, symbolic.Neg(symbolic.NewMul(symbolic.At(its.Ref), inner)))
		}
	}

	// Stresses (read v[t+1] and r[t+1]).
	for d := 0; d < s.nd; d++ {
		tdd := s.taus[d][d]
		s.solve(tdd, symbolic.Sub(
			symbolic.NewAdd(
				symbolic.NewMul(symbolic.At(ptt.Ref), s.divV(tdd)),
				symbolic.NewMul(symbolic.At(stt.Ref), symbolic.Sub(s.dv(tdd, d, d), s.divV(tdd))),
				symbolic.ForwardStencil(rs[d][d].Ref),
			),
			symbolic.NewMul(symbolic.At(damp.Ref), symbolic.At(tdd.Ref)),
		))
	}
	for d := 0; d < s.nd; d++ {
		for e := d + 1; e < s.nd; e++ {
			tde := s.taus[d][e]
			s.solve(tde, symbolic.Sub(
				symbolic.NewAdd(
					symbolic.NewMul(symbolic.Rat(1, 2), symbolic.At(stt.Ref), s.strain(tde, d, e)),
					symbolic.ForwardStencil(rs[d][e].Ref),
				),
				symbolic.NewMul(symbolic.At(damp.Ref), symbolic.At(tde.Ref)),
			))
		}
	}

	return s.model("viscoelastic", s.normalStresses(), dtc*0.85)
}
