package propagators

import (
	"testing"

	"devigo/internal/halo"
	"devigo/internal/mpi"
)

// worldMessages runs a 24² acoustic model over ranks in-process ranks for
// nt steps with a line of nrec receivers (0: none) and returns the
// messages the run sent, summed over the world.
func worldMessages(t *testing.T, ranks, nrec, nt int) int {
	t.Helper()
	topo := map[int][]int{2: {2, 1}, 4: {2, 2}}[ranks]
	sent := make([]int, ranks)
	err := mpi.RunRanks(ranks, func(c *mpi.Comm) error {
		m, ctx, err := OnRank(c, "acoustic", serialCfg([]int{24, 24}, 4), halo.ModeDiagonal, topo)
		if err != nil {
			return err
		}
		res, err := Run(m, ctx, RunConfig{NT: nt, NReceivers: nrec,
			Exec: Exec{Workers: 1, TimeTile: 1, Autotune: "off"}})
		if err != nil {
			return err
		}
		res.Op.Close()
		sent[c.Rank()] = c.Transport().Stats().MsgsSent
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range sent {
		total += n
	}
	return total
}

func TestRunReducesReceiversOnce(t *testing.T) {
	// Receivers are sampled rank-locally every step and their traces are
	// reduced once, when the run ends: the messages a receiver line adds
	// to a distributed run do not grow with NT.
	for _, ranks := range []int{2, 4} {
		extra := map[int]int{}
		for _, nt := range []int{16, 32} {
			extra[nt] = worldMessages(t, ranks, 4, nt) - worldMessages(t, ranks, 0, nt)
		}
		if extra[16] <= 0 || extra[16] != extra[32] {
			t.Errorf("%d ranks: receivers add %d messages at NT 16 and %d at NT 32, want one reduction's worth at both",
				ranks, extra[16], extra[32])
		}
	}
}
