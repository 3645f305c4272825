package propagators_test

import (
	"fmt"

	"devigo/internal/opcache"
	"devigo/internal/propagators"
)

// ExampleRunShots runs a small shot-parallel FWI gradient survey: four
// shots over one acoustic model on two shot workers, sharing an operator
// cache. Each worker builds its solver once and reuses it for its shots;
// the three gradient schedules (forward, adjoint, imaging) are lowered
// exactly once for the whole survey, so the second worker's three lookups
// hit. The stacked gradient is bit-identical to a sequential loop at any
// worker count.
func ExampleRunShots() {
	cfg := propagators.Config{Shape: []int{24, 24}, SpaceOrder: 2, NBL: 0, Velocity: 1}
	survey := propagators.ShotsConfig{
		Gradient: propagators.GradientConfig{
			NT:                 8,
			Wavelet:            []float32{1, -2, 1},
			ReceiverCoords:     [][]float64{{6, 5}, {11, 9}, {15, 14}, {17, 16}},
			CheckpointInterval: 3,
		},
		Shots: []propagators.Shot{
			{SourceCoords: []float64{8, 8}},
			{SourceCoords: []float64{12, 12}},
			{SourceCoords: []float64{16, 15}},
			{SourceCoords: []float64{18, 6}},
		},
		Workers: 2,
		Cache:   opcache.New(),
	}
	res, err := propagators.RunShots("acoustic", cfg, survey)
	if err != nil {
		fmt.Println("survey failed:", err)
		return
	}
	fmt.Printf("shots: %d  workers: %d\n", len(res.Shots), res.Workers)
	fmt.Printf("schedules lowered: %d  cache hit rate: %.0f%%\n",
		res.CacheStats.Misses, 100*res.CacheStats.HitRate())
	fmt.Printf("stacked gradient norm > 0: %v\n", res.GradNorm > 0)
	// Output:
	// shots: 4  workers: 2
	// schedules lowered: 3  cache hit rate: 50%
	// stacked gradient norm > 0: true
}
