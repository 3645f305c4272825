// Acoustic runs the paper's flagship workload: a 3-D isotropic acoustic
// wave propagator with a Ricker point source and a receiver line, first
// serially and then distributed over 8 ranks with each communication
// pattern, verifying that every pattern reproduces the serial wavefield
// checksum exactly (the zero-code-change DMP guarantee).
package main

import (
	"fmt"
	"log"

	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/propagators"
)

const (
	shapeEdge = 36
	so        = 4
	nt        = 40
)

func config() propagators.Config {
	return propagators.Config{
		Shape:      []int{shapeEdge, shapeEdge, shapeEdge},
		SpaceOrder: so,
		NBL:        6,
		Velocity:   1.5,
	}
}

func main() {
	m, err := propagators.Acoustic(config())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("isotropic acoustic: %d^3 grid, SDO %d, %d timesteps, dt=%.4f (CFL)\n",
		shapeEdge, so, nt, m.CriticalDt)
	res, err := propagators.Run(m, nil, propagators.RunConfig{NT: nt, NReceivers: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial:       norm=%.6e  %6.1f Mpts/s  (flops/point=%d)\n",
		res.Norm, res.Perf.GPtss()*1e3, res.Perf.FlopsPerPoint)
	if err := res.CheckFinite(m.Name); err != nil {
		log.Fatal(err)
	}
	serialNorm := res.Norm

	for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
		var norm float64
		err := mpi.RunRanks(8, func(c *mpi.Comm) error {
			dm, ctx, err := propagators.OnRank(c, "acoustic", config(), mode, []int{2, 2, 2})
			if err != nil {
				return err
			}
			dres, err := propagators.Run(dm, ctx, propagators.RunConfig{NT: nt, NReceivers: 8})
			if err != nil {
				return err
			}
			if err := dres.CheckFinite(dm.Name); err != nil {
				return err
			}
			if c.Rank() == 0 {
				norm = dres.Norm
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		// The per-point arithmetic is bitwise identical; only the final
		// norm reduction accumulates in rank order, so allow an LSB of
		// float64 slack there.
		match := "MATCHES serial"
		if diff := norm - serialNorm; diff > 1e-12*serialNorm || diff < -1e-12*serialNorm {
			match = fmt.Sprintf("DIFFERS from serial (%.6e)", serialNorm)
		}
		fmt.Printf("8 ranks %-6s norm=%.6e  %s\n", mode, norm, match)
	}
}
