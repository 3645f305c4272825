package propagators

// Acoustic builds the isotropic acoustic wave propagator (paper Section
// IV-B1, Appendix A1):
//
//	m * u.dt2 - laplace(u) + damp * u.dt = 0
//
// solved for u.forward. The working set is 5 fields: u (3 time buffers),
// m (squared slowness) and damp.
func Acoustic(cfg Config) (*Model, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	u := b.timeField("u", 2, nil)
	// Homogeneous squared slowness and the absorbing profile.
	m := b.param("m", 1/(b.c.Velocity*b.c.Velocity))
	damp := b.damp(0.1)
	if b.err != nil {
		return nil, b.err
	}
	b.waveEquation(u, m, damp, +1)
	return b.model("acoustic", []string{"u"}, criticalDt(b.g, b.c.Velocity))
}
