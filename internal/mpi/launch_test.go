package mpi

import (
	"errors"
	"fmt"
	"io"
	"os"
	"testing"
)

// launchScenarioEnv tells a rank process of
// TestLaunchTCPLocalReportsOneRank what to do.
const launchScenarioEnv = "DEVIGO_MPI_TEST_LAUNCH"

// launchedRank is the body of a re-executed test binary: one rank of the
// launched TCP world, which ends as a rank process of devigo-run does —
// its error on one stderr line, and ExitPeerFailed when a peer's failure
// caused it.
func launchedRank(scenario string) {
	t, err := TCPFromEnv()
	if err == nil {
		err = RunRank(t, func(c *Comm) error {
			switch scenario {
			case "own":
				return errors.New("boom")
			case "after":
				// Rank 2 dies; every other rank waits on its right-hand
				// neighbour, so each fails only because a peer did.
				if c.Rank() == 2 {
					return errors.New("boom")
				}
				c.Recv((c.Rank()+1)%c.Size(), 7, make([]float32, 1))
			case "ok":
				fmt.Fprintf(os.Stderr, "rank %d ok\n", c.Rank())
			}
			return nil
		})
		t.Close()
	}
	switch {
	case errors.Is(err, ErrPeerFailed):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(ExitPeerFailed)
	case err != nil:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// A failed launch reports one rank's own line: the lowest rank that failed
// on its own, not a peer that only followed it. A successful launch
// forwards every rank's stderr in rank order.
func TestLaunchTCPLocalReportsOneRank(t *testing.T) {
	if os.Getenv(RankEnvVar) != "" {
		launchedRank(os.Getenv(launchScenarioEnv))
	}
	t.Setenv(TCPTimeoutEnvVar, "20s")
	argv := []string{os.Args[0], "-test.run=^TestLaunchTCPLocalReportsOneRank$"}
	for _, tc := range []struct{ scenario, want string }{
		{"own", "mpi: rank 0: boom"},
		{"after", "mpi: rank 2: boom"},
	} {
		t.Setenv(launchScenarioEnv, tc.scenario)
		err := LaunchTCPLocal(4, argv)
		var rf *RankFailure
		if !errors.As(err, &rf) {
			t.Fatalf("%s: launch error %v, want a *RankFailure", tc.scenario, err)
		}
		if got := rf.Error(); got != tc.want {
			t.Errorf("%s: launch reported %q, want %q", tc.scenario, got, tc.want)
		}
	}

	t.Setenv(launchScenarioEnv, "ok")
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	err = LaunchTCPLocal(4, argv)
	os.Stderr = stderr
	w.Close()
	out, _ := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := "rank 0 ok\nrank 1 ok\nrank 2 ok\nrank 3 ok\n"; string(out) != want {
		t.Errorf("forwarded stderr %q, want %q", out, want)
	}
}
