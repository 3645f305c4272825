package perfmodel

// Single-node (CPU) and single-device (GPU) throughput anchors, in GPts/s,
// taken from the paper's appendix tables (basic mode, 1 node/device,
// space orders 4/8/12/16):
//
//	CPU: Tables III-VI (acoustic), VII-X (elastic), XI-XIV (TTI),
//	     XV-XVIII (viscoelastic).
//	GPU: Tables XIX-XXII, XXIII-XXVI, XXVII-XXX, XXXI-XXXIV.
//
// The analytic streams/flops model reproduces the acoustic kernel's
// absolute rate from first principles (~12 GPts/s per node) but cannot
// capture the cache behaviour that separates the staggered elastic and
// viscoelastic kernels from TTI; single-node rates are therefore anchored
// to the paper's measurements, while all *scaling* behaviour (efficiency
// decay, mode crossovers, CPU/GPU divergence) comes from the model.
// Machine.Host prices a point update at the anchored rate where one
// exists and at the derated roofline otherwise.
var cpuAnchors = map[string]map[int]float64{
	"acoustic":     {4: 13.4, 8: 12.4, 12: 11.5, 16: 10.8},
	"elastic":      {4: 1.8, 8: 1.7, 12: 1.5, 16: 1.0},
	"tti":          {4: 4.3, 8: 3.5, 12: 2.7, 16: 2.0},
	"viscoelastic": {4: 1.2, 8: 1.1, 12: 1.0, 16: 0.7},
}

var gpuAnchors = map[string]map[int]float64{
	"acoustic":     {4: 34.3, 8: 31.2, 12: 28.8, 16: 25.8},
	"elastic":      {4: 6.5, 8: 5.2, 12: 4.0, 16: 2.5},
	"tti":          {4: 10.5, 8: 8.5, 12: 7.5, 16: 5.8},
	"viscoelastic": {4: 3.4, 8: 2.8, 12: 2.5, 16: 1.6},
}

// paperAnchor returns the measured 1-node/1-device throughput for the
// kernel if the paper reports it.
func paperAnchor(model string, so int, gpu bool) (float64, bool) {
	table := cpuAnchors
	if gpu {
		table = gpuAnchors
	}
	bySO, ok := table[model]
	if !ok {
		return 0, false
	}
	v, ok := bySO[so]
	return v, ok
}
