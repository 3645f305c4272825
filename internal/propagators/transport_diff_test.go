package propagators

import (
	"testing"
	"time"

	"devigo/internal/core"
	"devigo/internal/halo"
	"devigo/internal/mpi"
)

// Transport differential suite: the same 4-rank run must be
// bit-identical whether ranks are goroutines sharing memory (the
// in-process transport) or peers exchanging length-prefixed frames over
// loopback TCP. The communication schedule above the Transport
// interface is byte-for-byte the same, so any divergence is a transport
// bug — framing, ordering, or a float that didn't round-trip the wire.

// dmpOutcome is everything a distributed run externalizes: the result,
// and the world-summed traffic the run put on the transport (the schedule
// above the Transport interface must not depend on the wire).
type dmpOutcome struct {
	norm        float64
	traces      [][]float64
	msgs, bytes float64
}

// runDMPOver runs one 2x2-decomposed model under the given world runner
// and collects the rank-0 outcome.
func runDMPOver(t *testing.T, runWorld func(body func(c *mpi.Comm) error) error,
	name, engine string, shape []int, mode halo.Mode, so, nt, k int) dmpOutcome {
	t.Helper()
	var out dmpOutcome
	err := runWorld(func(c *mpi.Comm) error {
		m, ctx, err := OnRank(c, name, serialCfg(shape, so), mode, []int{2, 2})
		if err != nil {
			return err
		}
		res, err := Run(m, ctx, RunConfig{
			NT: nt, NReceivers: 4,
			Exec: Exec{Engine: engine, Workers: 2, TimeTile: k},
		})
		if err != nil {
			return err
		}
		// Read before the reductions below add their own sends.
		st := c.Transport().Stats()
		msgs := c.AllreduceScalar(float64(st.MsgsSent), mpi.OpSum)
		bytes := c.AllreduceScalar(float64(st.BytesSent), mpi.OpSum)
		if c.Rank() == 0 {
			out.norm = res.Norm
			out.traces = res.Receivers
			out.msgs, out.bytes = msgs, bytes
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func runDMPInproc(t *testing.T, name, engine string, shape []int, mode halo.Mode, so, nt, k int) dmpOutcome {
	t.Helper()
	runner := func(body func(c *mpi.Comm) error) error { return mpi.RunRanks(4, body) }
	return runDMPOver(t, runner, name, engine, shape, mode, so, nt, k)
}

func runDMPTCP(t *testing.T, name, engine string, shape []int, mode halo.Mode, so, nt, k int) dmpOutcome {
	t.Helper()
	runner := func(body func(c *mpi.Comm) error) error { return mpi.RunTCPLocal(4, 2*time.Minute, body) }
	return runDMPOver(t, runner, name, engine, shape, mode, so, nt, k)
}

// requireIdentical asserts two outcomes agree bit-for-bit.
func requireIdentical(t *testing.T, label string, a, b dmpOutcome) {
	t.Helper()
	if a.norm != b.norm {
		t.Errorf("%s: norms diverge across transports: inproc %v, tcp %v", label, a.norm, b.norm)
	}
	if a.msgs <= 0 || a.msgs != b.msgs || a.bytes != b.bytes {
		t.Errorf("%s: traffic diverges across transports: inproc %v msgs / %v B, tcp %v msgs / %v B",
			label, a.msgs, a.bytes, b.msgs, b.bytes)
	}
	if len(a.traces) != len(b.traces) {
		t.Fatalf("%s: trace lengths diverge: %d vs %d", label, len(a.traces), len(b.traces))
	}
	for it := range a.traces {
		for r := range a.traces[it] {
			if a.traces[it][r] != b.traces[it][r] {
				t.Fatalf("%s: trace (%d,%d) diverges across transports: %v vs %v",
					label, it, r, a.traces[it][r], b.traces[it][r])
			}
		}
	}
}

// TestTransportDifferential_AllModesTimeTiles is the acceptance matrix
// of the TCP transport: every halo mode crossed with exchange intervals
// k∈{1,4}, on the acoustic model's bytecode engine, bit-exact against
// the in-process world.
func TestTransportDifferential_AllModesTimeTiles(t *testing.T) {
	shape := []int{24, 24}
	so, nt := 4, 20
	for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
		for _, k := range []int{1, 4} {
			mode, k := mode, k
			t.Run(mode.String()+"/k"+string(rune('0'+k)), func(t *testing.T) {
				in := runDMPInproc(t, "acoustic", core.EngineBytecode, shape, mode, so, nt, k)
				tc := runDMPTCP(t, "acoustic", core.EngineBytecode, shape, mode, so, nt, k)
				requireIdentical(t, mode.String(), in, tc)
			})
		}
	}
}

// TestTransportDifferential_ModelsEngines crosses the remaining axes:
// every model against both execution engines, diagonal mode, over TCP
// versus in-process.
func TestTransportDifferential_ModelsEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("transport model/engine matrix skipped in -short")
	}
	shape := []int{24, 24}
	so, nt := 4, 20
	for _, name := range []string{"acoustic", "elastic", "tti"} {
		for _, engine := range []string{core.EngineBytecode, core.EngineInterpreter} {
			name, engine := name, engine
			t.Run(name+"/"+engine, func(t *testing.T) {
				in := runDMPInproc(t, name, engine, shape, halo.ModeDiagonal, so, nt, 1)
				tc := runDMPTCP(t, name, engine, shape, halo.ModeDiagonal, so, nt, 1)
				requireIdentical(t, name+"/"+engine, in, tc)
			})
		}
	}
}

// TestTransportDifferential_SerialAgreement closes the loop: the TCP
// 4-rank norm must match the serial norm to the same 1e-9 relative
// tolerance the in-process distributed suite is held to.
func TestTransportDifferential_SerialAgreement(t *testing.T) {
	shape := []int{24, 24}
	so, nt := 4, 20
	m, err := Build("acoustic", serialCfg(shape, so))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, nil, RunConfig{NT: nt, NReceivers: 4, Exec: Exec{Engine: core.EngineBytecode}})
	if err != nil {
		t.Fatal(err)
	}
	tc := runDMPTCP(t, "acoustic", core.EngineBytecode, shape, halo.ModeDiagonal, so, nt, 1)
	rel := (tc.norm - res.Norm) / res.Norm
	if rel < 0 {
		rel = -rel
	}
	if rel > 1e-9 {
		t.Errorf("TCP 4-rank norm %v vs serial %v: relative error %g > 1e-9", tc.norm, res.Norm, rel)
	}
}
