package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// Hang regression: a rank that dies while its peers wait on it — directly
// or transitively — must fail the whole world, promptly, with the dead
// rank's own error. Before World.poison a panicking goroutine rank left
// every peer parked in mailbox.pop forever.

// within runs f on its own goroutine and fails the test if it has not
// returned after d, so a regression fails this test instead of wedging
// the suite until the package timeout.
func within(t *testing.T, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("world still blocked after %s", d)
		return nil
	}
}

// failingBody is a rank program in which rank bad dies — by panic or by
// returned error, before or after the world's first exchange — while
// every other rank waits on its right-hand neighbour: a chain whose last
// link is the dead rank, so ranks that never talk to it must unwind too.
// Every live rank blocks in Recv, where the halo exchangers' Finish
// blocks.
func failingBody(bad int, byPanic, afterExchange bool) func(c *Comm) error {
	return func(c *Comm) error {
		if afterExchange {
			if got := c.AllreduceScalar(1, OpSum); got != float64(c.Size()) {
				return fmt.Errorf("allreduce = %v", got)
			}
		}
		if c.Rank() == bad {
			if byPanic {
				panic("boom")
			}
			return errors.New("boom")
		}
		buf := make([]float32, 1)
		c.Recv((c.Rank()+1)%c.Size(), 7, buf)
		return nil
	}
}

func TestFailedRankFailsItsWorld(t *testing.T) {
	runners := []struct {
		name string
		run  func(n int, body func(c *Comm) error) error
	}{
		{"RunRanks", RunRanks},
		{"World.Run", func(n int, body func(c *Comm) error) error {
			return NewWorld(n).Run(func(c *Comm) {
				if err := body(c); err != nil {
					panic(err)
				}
			})
		}},
		{"RunTCPLocal", func(n int, body func(c *Comm) error) error {
			return RunTCPLocal(n, 30*time.Second, body)
		}},
	}
	for _, r := range runners {
		for _, n := range []int{2, 4} {
			for _, byPanic := range []bool{true, false} {
				for _, after := range []bool{false, true} {
					name := fmt.Sprintf("%s/%dranks/panic=%v/afterExchange=%v", r.name, n, byPanic, after)
					t.Run(name, func(t *testing.T) {
						bad := n - 1
						want := fmt.Sprintf("mpi: rank %d: boom", bad)
						if byPanic || r.name == "World.Run" {
							want = fmt.Sprintf("mpi: rank %d: panic: boom", bad)
						}
						// Repeated: the root cause, not whichever peer's
						// secondary failure happened to be collected.
						for rep := 0; rep < 5; rep++ {
							err := within(t, time.Second, func() error {
								return r.run(n, failingBody(bad, byPanic, after))
							})
							if err == nil || err.Error() != want {
								t.Fatalf("rep %d: got error %v, want %q", rep, err, want)
							}
						}
					})
				}
			}
		}
	}
}

func TestRunRanksWorldOfOneAndSuccess(t *testing.T) {
	// n == 1 is an ordinary world: collectives are identities, no branch.
	for _, n := range []int{1, 3} {
		sum := make([]float64, n)
		if err := RunRanks(n, func(c *Comm) error {
			sum[c.Rank()] = c.AllreduceScalar(float64(c.Rank()+1), OpSum)
			barrier(c)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for r, s := range sum {
			if want := float64(n * (n + 1) / 2); s != want {
				t.Errorf("n=%d rank %d: sum %v, want %v", n, r, s, want)
			}
		}
	}
	if err := RunRanks(0, func(*Comm) error { return nil }); err == nil {
		t.Error("a world of zero ranks must be an error")
	}
}

func TestRunRankNamesRankAndCause(t *testing.T) {
	tr, err := NewTCPTransport(TCPConfig{Rank: 0, Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	err = RunRank(tr, func(*Comm) error { return errors.New("bad input") })
	if err == nil || err.Error() != "mpi: rank 0: bad input" {
		t.Errorf("returned error: got %v", err)
	}
	err = RunRank(tr, func(*Comm) error { panic("bad state") })
	if err == nil || err.Error() != "mpi: rank 0: panic: bad state" {
		t.Errorf("panic: got %v", err)
	}
}

func TestWorldNamesLowestFailingRank(t *testing.T) {
	// Every rank's outcome is kept and the lowest rank's own failure is
	// reported, so the rank named is the same on every run: rank 0 when
	// every rank fails (rank 0 last of all), and the one failing rank when
	// its peers only unwind — the lower ranks' secondary failures do not
	// stand in for it.
	runners := []struct {
		name string
		run  func(n int, body func(c *Comm) error) error
	}{
		{"RunRanks", RunRanks},
		{"RunTCPLocal", func(n int, body func(c *Comm) error) error {
			return RunTCPLocal(n, 30*time.Second, body)
		}},
	}
	everyRankFails := func(c *Comm) error {
		time.Sleep(time.Duration(c.Size()-c.Rank()) * time.Millisecond)
		return fmt.Errorf("boom %d", c.Rank())
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			for rep := 0; rep < 20; rep++ {
				err := within(t, 10*time.Second, func() error { return r.run(4, everyRankFails) })
				if err == nil || err.Error() != "mpi: rank 0: boom 0" {
					t.Fatalf("every rank failed, rep %d: got %v, want rank 0's failure", rep, err)
				}
			}
			for rep := 0; rep < 5; rep++ {
				err := within(t, 10*time.Second, func() error { return r.run(4, failingBody(2, false, true)) })
				if err == nil || err.Error() != "mpi: rank 2: boom" {
					t.Fatalf("rank 2 failed, rep %d: got %v, want rank 2's failure", rep, err)
				}
			}
		})
	}
}
