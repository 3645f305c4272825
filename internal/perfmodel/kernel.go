package perfmodel

// KernelChar characterises one wave kernel at one space order — everything
// the analytic model needs, derived from the *actual compiled equations*
// (not hand-entered constants). Build one with perfreport.Characterize,
// which runs a probe model through the full compiler pipeline.
type KernelChar struct {
	// Name is the propagator name ("acoustic", "tti", ...).
	Name string
	// SO is the space order of the discretisation.
	SO int
	// FlopsPerPoint is the per-gridpoint flop cost summed over clusters.
	FlopsPerPoint float64
	// StreamsPerPoint counts the distinct (field, timeOffset) data streams
	// read or written per point; bytes/point = 4*streams under perfect
	// neighbour reuse.
	StreamsPerPoint float64
	// HaloStreams is the number of (field, timeOffset) buffers exchanged
	// per timestep (after the drop/hoist/merge passes).
	HaloStreams int
	// HaloWidth is the exchanged ghost width (= space order).
	HaloWidth int
	// WorkingSetFields is the paper's per-model field count.
	WorkingSetFields int
}

// BytesPerPoint returns the modelled DRAM traffic per grid point update.
func (k KernelChar) BytesPerPoint() float64 { return 4 * k.StreamsPerPoint }

// OperationalIntensity returns flops per DRAM byte.
func (k KernelChar) OperationalIntensity() float64 {
	return k.FlopsPerPoint / k.BytesPerPoint()
}
