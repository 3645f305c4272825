// devigo-run executes a real (small-scale) forward simulation of one of
// the paper's four wave propagators on the MPI runtime and reports its
// throughput plus a wavefield checksum — the functional-correctness
// companion of devigo-bench:
//
//	devigo-run -model acoustic -d 48 -so 8 -nt 50                 # serial
//	devigo-run -model elastic -d 32 -ranks 8 -mpi diag -nt 30     # 8-rank DMP
//	devigo-run -model acoustic -ranks 4 -transport tcp -nt 30     # 4 processes over TCP
//
// -transport selects the delivery substrate: "inproc" runs every rank
// as a goroutine of this process (the default), "tcp" spawns one OS
// process per rank on localhost, rendezvousing through a generated
// hostfile (DEVIGO_RANKS / DEVIGO_RANK / DEVIGO_HOSTFILE — set those
// yourself to place ranks on real machines instead).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"devigo/internal/core"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/obs"
	"devigo/internal/propagators"
)

func main() {
	model := flag.String("model", "acoustic", "acoustic|elastic|tti|viscoelastic")
	d := flag.Int("d", 48, "grid points per dimension")
	dims := flag.Int("dims", 3, "space dimensions (2 or 3)")
	so := flag.Int("so", 8, "space discretisation order")
	nt := flag.Int("nt", 50, "timesteps")
	nbl := flag.Int("nbl", 8, "absorbing layer width")
	ranks := flag.Int("ranks", 1, "MPI ranks")
	transport := flag.String("transport", "inproc", "rank substrate: inproc (goroutines) | tcp (one process per rank)")
	mpiMode := flag.String("mpi", "basic", "halo mode: basic|diag|full (none runs serially only: -ranks 1)")
	tile := flag.Int("tile", 0, "halo-exchange interval k (deep halos exchanged every k steps; 0 = DEVIGO_TIME_TILE or 1)")
	nrec := flag.Int("receivers", 8, "receiver line length")
	emitC := flag.Bool("emit-c", false, "print the generated C-like code and exit")
	flag.Parse()

	shape := make([]int, *dims)
	for i := range shape {
		shape[i] = *d
	}
	gridPoints := 1
	for _, n := range shape {
		gridPoints *= n
	}
	baseCfg := propagators.Config{Shape: shape, SpaceOrder: *so, NBL: *nbl, Velocity: 1.5}

	if *emitC {
		m, err := propagators.Build(*model, baseCfg)
		fail(err)
		op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: m.Name})
		fail(err)
		fmt.Println(op.CCode)
		return
	}

	mode, err := halo.ParseMode(*mpiMode)
	fail(err)

	// One rank program for every world size and transport: a world of one
	// is the serial run (OnRank hands it the undecomposed model and a nil
	// context), and an error returned here fails the whole world.
	rankBody := func(c *mpi.Comm) error {
		m, ctx, err := propagators.OnRank(c, *model, baseCfg, mode, nil)
		if err != nil {
			return err
		}
		res, err := propagators.Run(m, ctx, propagators.RunConfig{NT: *nt, NReceivers: *nrec, Exec: propagators.Exec{TimeTile: *tile}})
		if err != nil {
			return err
		}
		// Traffic accounting works the same over any transport: snapshot
		// the local counters, then sum across ranks with the runtime's
		// own allreduce (the reduction's messages post-date the snapshot,
		// so they are not self-counted).
		st := c.Transport().Stats()
		msgs := c.AllreduceScalar(float64(st.MsgsSent), mpi.OpSum)
		bytes := c.AllreduceScalar(float64(st.BytesSent), mpi.OpSum)
		// The run is as fast as its slowest rank.
		seconds := c.AllreduceScalar(res.Perf.WallSeconds, mpi.OpMax)
		if c.Rank() == 0 {
			label := "serial"
			if ctx != nil {
				label = fmt.Sprintf("%d ranks (%s), %s mode, topology %v", c.Size(), *transport, mode, ctx.Decomp.Topology)
			}
			if k := res.Op.TimeTile(); k > 1 {
				label += fmt.Sprintf(", exchange interval %d", k)
			}
			report(label, res, gridPoints, seconds)
			fmt.Printf("  MPI traffic: %d messages, %.1f MB total\n", int64(msgs), bytes/1e6)
		}
		// The norm is global, so every rank reaches the same verdict.
		return checkNorm(*model, res.NT, res.Norm)
	}

	switch *transport {
	case "inproc":
		fail(mpi.RunRanks(*ranks, rankBody))
		// One flush for the whole world: the per-rank recorders are
		// global, so the trace holds every rank's spans (one Perfetto
		// process per rank).
		flush()
	case "tcp":
		if os.Getenv(mpi.RankEnvVar) == "" {
			// Launcher mode: spawn one copy of this exact invocation per
			// rank; the children land in the branch below. A failed rank
			// has already written the run's one report line: print it
			// alone.
			err := mpi.LaunchTCPLocal(*ranks, os.Args)
			var rf *mpi.RankFailure
			if errors.As(err, &rf) {
				fmt.Fprintln(os.Stderr, rf)
				os.Exit(1)
			}
			fail(err)
			return
		}
		t, err := mpi.TCPFromEnv()
		fail(err)
		runErr := mpi.RunRank(t, rankBody)
		t.Close()
		fail(runErr)
		// Rank processes share the environment, so each writes its own
		// trace/metrics files (suffixed by rank) instead of clobbering
		// one path.
		suffixObsPaths(t.Rank())
		flush()
	default:
		fail(fmt.Errorf("unknown transport %q (valid: inproc, tcp)", *transport))
	}
}

// suffixObsPaths appends ".rank<r>" to the requested observability
// output paths so concurrent rank processes never write the same file.
func suffixObsPaths(rank int) {
	for _, v := range []string{obs.TraceEnvVar, obs.MetricsEnvVar} {
		if path := os.Getenv(v); path != "" {
			os.Setenv(v, fmt.Sprintf("%s.rank%d", path, rank))
		}
	}
}

// report prints one run. seconds is the slowest rank's steady-state wall
// time, PostStep hooks (sources, receivers) included, so the useful figure
// is the whole grid advancing (each point counted once per step, however
// many ranks recomputed it) per second of the run; the swept figure
// beneath it is this rank's own compute + halo counter, which also counts
// ghost-shell and CIRE-extension points.
func report(label string, res *propagators.RunResult, gridPoints int, seconds float64) {
	fmt.Printf("%s\n", label)
	// The norm prints with full float64 round-trip precision so two runs
	// (e.g. inproc vs tcp in CI) can be compared for bit-equality.
	fmt.Printf("  steps=%d dt=%.5f  norm=%.17e\n", res.NT, res.DT, res.Norm)
	useful := 0.0
	if seconds > 0 {
		useful = float64(gridPoints) * float64(res.Perf.Timesteps) / seconds / 1e6
	}
	fmt.Printf("  useful: %.1f Mpts/s (%d grid points x %d steps / %.2fs on the slowest rank)\n",
		useful, gridPoints, res.Perf.Timesteps, seconds)
	fmt.Printf("  this rank swept: %.1f Mpts/s incl. redundant points, flops/point=%d, compute %.2fs, halo %.2fs\n",
		res.Perf.GPtss()*1e3, res.Perf.FlopsPerPoint,
		res.Perf.ComputeSeconds, res.Perf.HaloSeconds)
}

// checkNorm is the run's own sanity check: a wavefield whose norm is NaN
// or infinite has diverged, and a diverged run must not exit 0 with a
// throughput figure.
func checkNorm(model string, nt int, norm float64) error {
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		return fmt.Errorf("model %s diverged: norm=%v after %d steps", model, norm, nt)
	}
	return nil
}

// fail exits with the error after flushing any requested trace/metrics
// output — an aborted run should still leave its observability files
// behind (truncated evidence beats no evidence). A rank process whose
// failure only follows a peer's exits mpi.ExitPeerFailed, so the launcher
// reports the rank that failed on its own.
func fail(err error) {
	if err != nil {
		if ferr := obs.FlushEnv(); ferr != nil {
			fmt.Fprintln(os.Stderr, "devigo-run: flush observability:", ferr)
		}
		fmt.Fprintln(os.Stderr, "devigo-run:", err)
		if errors.Is(err, mpi.ErrPeerFailed) {
			os.Exit(mpi.ExitPeerFailed)
		}
		os.Exit(1)
	}
}

// flush writes the trace/metrics output a successful run asked for; a
// path that cannot be written fails the run (fail would flush a second
// time and report it twice).
func flush() {
	if err := obs.FlushEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "devigo-run: flush observability:", err)
		os.Exit(1)
	}
}
