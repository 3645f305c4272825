// FWI demonstrates the adjoint/gradient subsystem: a checkpointed
// forward acoustic run, the time-reversed adjoint propagation of the
// recorded receiver data, and the zero-lag imaging condition
// accumulating an RTM-style gradient — with the dot-product identity
// <Fq, d> = <q, F'd> reported as the correctness certificate, serially
// and on 4 ranks.
package main

import (
	"fmt"
	"log"

	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/propagators"
)

const (
	shapeEdge = 96
	so        = 8
	nt        = 120
	nrec      = 24
	interval  = 12
)

func config() propagators.Config {
	return propagators.Config{
		Shape:      []int{shapeEdge, shapeEdge},
		SpaceOrder: so,
		NBL:        8,
		Velocity:   1.5,
	}
}

func gradientConfig() propagators.GradientConfig {
	return propagators.GradientConfig{
		NT:                 nt,
		NReceivers:         nrec,
		CheckpointInterval: interval,
	}
}

func main() {
	// Exact-arithmetic certification first: the gate CI enforces.
	cert, err := propagators.RunDotTest(nil, halo.ModeNone, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adjoint certification: <Fq,Fq>=%.9g <q,F'Fq>=%.9g rel=%.3g\n",
		cert.DotForward, cert.DotAdjoint, cert.RelErr)

	m, err := propagators.Acoustic(config())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFWI gradient: %dx%d grid, SDO %d, %d timesteps, %d receivers, checkpoint every %d steps\n",
		shapeEdge, shapeEdge, so, nt, nrec, interval)
	res, err := propagators.RunGradient(m, nil, gradientConfig())
	if err != nil {
		log.Fatal(err)
	}
	report("serial", res)

	// The identical gradient over 4 ranks with overlapped halo exchange.
	err = mpi.RunRanks(4, func(c *mpi.Comm) error {
		dm, ctx, err := propagators.OnRank(c, "acoustic", config(), halo.ModeFull, nil)
		if err != nil {
			return err
		}
		dres, err := propagators.RunGradient(dm, ctx, gradientConfig())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			report("4-rank full", dres)
			if propagators.RelDot(dres.GradNorm, res.GradNorm) > 1e-9 {
				return fmt.Errorf("distributed gradient diverges: %v vs %v", dres.GradNorm, res.GradNorm)
			}
			fmt.Println("\ndistributed gradient matches serial")
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

func report(label string, res *propagators.GradientResult) {
	fmt.Printf("%-12s |grad|=%.6e  dot identity: %.6e vs %.6e (rel %.2e)\n",
		label, res.GradNorm, res.DotForward, res.DotAdjoint, res.RelErr)
	fmt.Printf("%-12s checkpoints: %d snapshots (%.1f KB), %d recomputed steps\n",
		label, res.Checkpoint.Snapshots, float64(res.Checkpoint.SnapshotBytes)/1024,
		res.Checkpoint.RecomputedSteps)
}
