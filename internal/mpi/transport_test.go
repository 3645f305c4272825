package mpi

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// Transport conformance suite: every scenario runs over both the
// in-process transport and the loopback TCP transport, so the delivery
// contract (posting-order (source, tag) matching, post-time buffer
// ownership, ProcNull no-ops, collective determinism) is pinned for
// any implementation behind the interface.

// transports enumerates the implementations under test as world
// runners with a common shape.
var transports = []struct {
	name string
	run  func(n int, f func(c *Comm)) error
}{
	{"inproc", func(n int, f func(c *Comm)) error { return NewWorld(n).Run(f) }},
	{"tcp", func(n int, f func(c *Comm)) error {
		return RunTCPLocal(n, 30*time.Second, func(c *Comm) error { f(c); return nil })
	}},
}

func forEachTransport(t *testing.T, n int, f func(c *Comm)) {
	t.Helper()
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			if err := tr.run(n, f); err != nil {
				t.Fatalf("%s world failed: %v", tr.name, err)
			}
		})
	}
}

// failf reports a failure from inside a rank body by panicking; the
// world runner converts it into an error the subtest fails on.
func failf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}

func TestConformancePostingOrderMatching(t *testing.T) {
	// Same (source, tag) messages must arrive in posting order, and
	// tag-selective receives must not disturb the order of what they
	// skip over.
	forEachTransport(t, 2, func(c *Comm) {
		const per = 8
		switch c.Rank() {
		case 0:
			for i := 0; i < per; i++ {
				c.Send(1, 7, []float32{float32(i)})
				c.Send(1, 9, []float32{float32(100 + i)})
			}
		case 1:
			buf := make([]float32, 1)
			// Drain tag 9 first: selectivity must skip the tag-7 queue
			// without reordering it.
			for i := 0; i < per; i++ {
				c.Recv(0, 9, buf)
				if buf[0] != float32(100+i) {
					failf("tag 9 msg %d: got %v", i, buf[0])
				}
			}
			for i := 0; i < per; i++ {
				c.Recv(0, 7, buf)
				if buf[0] != float32(i) {
					failf("tag 7 msg %d: got %v", i, buf[0])
				}
			}
		}
	})
}

func TestConformanceProcNull(t *testing.T) {
	forEachTransport(t, 2, func(c *Comm) {
		c.Send(ProcNull, 1, []float32{1, 2, 3})
		buf := []float32{-1, -1}
		if n := c.Recv(ProcNull, 1, buf); n != 0 {
			failf("Recv from ProcNull returned %d, want 0", n)
		}
		if buf[0] != -1 || buf[1] != -1 {
			failf("Recv from ProcNull wrote into buf: %v", buf)
		}
	})
}

func TestConformanceIsendBufferOwnership(t *testing.T) {
	// The Transport contract snapshots the payload before Send returns
	// (which is what makes it an Isend): mutating the source buffer
	// immediately after the post must not corrupt the message on any
	// transport.
	forEachTransport(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			buf := []float32{1, 2, 3, 4}
			c.Send(1, 5, buf)
			for i := range buf {
				buf[i] = -99 // mutate immediately after the post
			}
			c.Send(1, 6, buf) // second message proves the first was a snapshot
		case 1:
			got := make([]float32, 4)
			c.Recv(0, 5, got)
			want := []float32{1, 2, 3, 4}
			for i := range want {
				if got[i] != want[i] {
					failf("Send payload not snapshotted at post: got %v", got)
				}
			}
			c.Recv(0, 6, got)
			if got[0] != -99 {
				failf("second send lost mutation: %v", got)
			}
		}
	})
}

func TestConformanceTruncationNamesRankSourceAndTag(t *testing.T) {
	// A message longer than its receive buffer is consumed and reported
	// as an error: the transport names the source, the tag and both
	// lengths, and the world runner adds the receiving rank, once.
	want := map[string]string{
		"inproc": "mpi: rank 1: recv from rank 0 tag 6: message truncated (4 elements into a buffer of 3)",
		"tcp":    "mpi: rank 1: tcp recv from rank 0 tag 6: message truncated (4 elements into a buffer of 3)",
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			err := tr.run(2, func(c *Comm) {
				long := []float32{1, 2, 3, 4}
				switch c.Rank() {
				case 0:
					c.Send(1, 5, long)
					c.Send(1, 5, []float32{7})
					c.Send(1, 6, long)
				case 1:
					_, err := c.Transport().Recv(0, 5, make([]float32, 2))
					if err == nil {
						failf("a 4-element message into a 2-element buffer was received")
					}
					for _, frag := range []string{"rank 0 tag 5", "4 elements into a buffer of 2"} {
						if !strings.Contains(err.Error(), frag) {
							failf("transport error %q lacks %q", err, frag)
						}
					}
					// The truncated message is gone: the next one is on top.
					buf := make([]float32, 4)
					if n := c.Recv(0, 5, buf); n != 1 || buf[0] != 7 {
						failf("message after the truncated one: %v", buf[:n])
					}
					c.Recv(0, 6, make([]float32, 3))
					failf("a 4-element message completed a 3-element Recv")
				}
			})
			if err == nil {
				t.Fatal("a truncated Recv did not fail its world")
			}
			if msg := err.Error(); msg != want[tr.name] {
				t.Errorf("world error %q, want %q", msg, want[tr.name])
			}
		})
	}
}

func TestConformanceRecycledPayloadsNeverAlias(t *testing.T) {
	// A transport recycles its payloads: once a receive has copied one
	// out, the next message may be written into it. Neither a sender's
	// buffer nor a receive buffer may share storage with a payload. Rank 0
	// puts 64 messages on one tag in flight at once, then 8 more after each
	// burst of 8 that rank 1 receives, overwriting its buffer after every
	// Send; rank 1 checks every received buffer again once all have come.
	const queued, burst, width = 64, 8, 16
	const msgs = queued + queued
	value := func(i, j int) float32 { return float32(1000*i + j) }
	forEachTransport(t, 2, func(c *Comm) {
		const data, ctl = 3, 4
		switch c.Rank() {
		case 0:
			buf := make([]float32, width)
			send := func(i int) {
				for j := range buf {
					buf[j] = value(i, j)
				}
				c.Send(1, data, buf)
				for j := range buf {
					buf[j] = -1
				}
			}
			for i := 0; i < queued; i++ {
				send(i)
			}
			c.Send(1, ctl, nil)
			for i := queued; i < msgs; i += burst {
				c.Recv(1, ctl, nil)
				for b := 0; b < burst; b++ {
					send(i + b)
				}
			}
		case 1:
			got := make([][]float32, msgs)
			check := func(i int) {
				for j, v := range got[i] {
					if v != value(i, j) {
						failf("message %d element %d: got %v, want %v", i, j, v, value(i, j))
					}
				}
			}
			recv := func(i int) {
				got[i] = make([]float32, width)
				if n := c.Recv(0, data, got[i]); n != width {
					failf("message %d: %d elements, want %d", i, n, width)
				}
				check(i)
			}
			c.Recv(0, ctl, nil) // every first message is queued
			for i := 0; i < queued; i += burst {
				for b := 0; b < burst; b++ {
					recv(i + b)
				}
				c.Send(0, ctl, nil)
			}
			for i := queued; i < msgs; i++ {
				recv(i)
			}
			for i := range got {
				check(i)
			}
		}
	})
}

func TestConformanceWaitallInterleavedDepthTags(t *testing.T) {
	// A tile head sends every depth stream's slab, then its Finish
	// receives them stream by stream. The tags interleave arbitrarily on
	// the wire; matching by tag must sort them out.
	const k = 4
	forEachTransport(t, 2, func(c *Comm) {
		peer := 1 - c.Rank()
		// Send depth streams in reverse order so arrival order fights
		// the order of the receives.
		for s := k - 1; s >= 0; s-- {
			v := float32(10*c.Rank() + s)
			c.Send(peer, OffsetTag(s, []int{1, 0, 0}), []float32{v, v, v})
		}
		bufs := make([][]float32, k)
		for s := 0; s < k; s++ {
			bufs[s] = make([]float32, 3)
			c.Recv(peer, OffsetTag(s, []int{1, 0, 0}), bufs[s])
		}
		for s := 0; s < k; s++ {
			want := float32(10*peer + s)
			for _, got := range bufs[s] {
				if got != want {
					failf("stream %d: got %v want %v", s, bufs[s], want)
				}
			}
		}
	})
}

func TestConformanceConcurrentStreams(t *testing.T) {
	// Multiple exchanger streams driving the same Comm concurrently
	// (the overlap engine's shape) must be race-free and stream-local
	// FIFO. Run under -race.
	const streams = 4
	const msgs = 16
	forEachTransport(t, 2, func(c *Comm) {
		peer := 1 - c.Rank()
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				tag := OffsetTag(s, []int{0, 1, 0})
				buf := make([]float32, 1)
				for i := 0; i < msgs; i++ {
					c.Send(peer, tag, []float32{float32(1000*s + i)})
					c.Recv(peer, tag, buf)
					if buf[0] != float32(1000*s+i) {
						failf("stream %d msg %d: got %v", s, i, buf[0])
					}
				}
			}(s)
		}
		wg.Wait()
	})
}

func TestConformanceCollectives(t *testing.T) {
	// Collectives are pure point-to-point, so they must agree across
	// transports and world sizes — including non-power-of-two sizes,
	// whose binomial trees are ragged, and non-zero broadcast roots.
	for _, n := range []int{1, 2, 3, 4, 5, 7} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			forEachTransport(t, n, func(c *Comm) {
				barrier(c)
				sum := c.AllreduceScalar(float64(c.Rank()+1), OpSum)
				want := float64(n*(n+1)) / 2
				if sum != want {
					failf("allreduce sum: got %v want %v", sum, want)
				}
				maxv := c.AllreduceScalar(float64(c.Rank()), OpMax)
				if maxv != float64(n-1) {
					failf("allreduce max: got %v want %v", maxv, n-1)
				}
				root := n / 2
				buf := make([]float32, 3)
				if c.Rank() == root {
					buf = []float32{3, 1, 4}
				}
				c.Bcast(root, buf)
				if buf[0] != 3 || buf[1] != 1 || buf[2] != 4 {
					failf("bcast from root %d: got %v", root, buf)
				}
				barrier(c)
			})
		})
	}
}

func TestConformanceAllreduceBitExactAcrossSizes(t *testing.T) {
	// The ascending-rank-order fold makes Allreduce bit-identical to a
	// sequential fold regardless of transport or communication
	// schedule — float addition is not associative, so this is what
	// keeps checked-in norms stable.
	for _, n := range []int{2, 3, 4, 6} {
		n := n
		contrib := func(r int) float64 { return math.Sqrt(float64(r)+0.1) * 1e-7 }
		want := contrib(0)
		for r := 1; r < n; r++ {
			want += contrib(r)
		}
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			forEachTransport(t, n, func(c *Comm) {
				got := c.AllreduceScalar(contrib(c.Rank()), OpSum)
				if got != want {
					failf("rank %d: fold not bit-exact: got %v want %v (diff %g)",
						c.Rank(), got, want, got-want)
				}
			})
		})
	}
}

func TestConformanceLargePayload(t *testing.T) {
	// A payload far beyond one socket buffer exercises framing and
	// partial reads on the TCP side.
	const elems = 1 << 18 // 1 MiB
	forEachTransport(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			data := make([]float32, elems)
			for i := range data {
				data[i] = float32(i % 977)
			}
			c.Send(1, 3, data)
		case 1:
			buf := make([]float32, elems)
			if n := c.Recv(0, 3, buf); n != elems {
				failf("large recv: got %d elems, want %d", n, elems)
			}
			for i := range buf {
				if buf[i] != float32(i%977) {
					failf("large payload corrupt at %d: %v", i, buf[i])
				}
			}
		}
	})
}

func TestConformanceEmptyMessage(t *testing.T) {
	// Zero-length payloads (the barrier's tokens) must deliver and
	// match like any other message.
	forEachTransport(t, 2, func(c *Comm) {
		peer := 1 - c.Rank()
		c.Send(peer, 11, nil)
		if n := c.Recv(peer, 11, nil); n != 0 {
			failf("empty message: got count %d", n)
		}
	})
}

func TestTCPHungPeerDeadline(t *testing.T) {
	// The hung-peer guarantee: a receive whose sender never sends fails
	// with a deadline error after the timeout, not a deadlock, and the
	// world run returns it as a clean error.
	err := RunTCPLocal(2, 500*time.Millisecond, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := make([]float32, 1)
			c.Recv(1, 99, buf) // rank 1 never sends: must trip the deadline
		}
		// rank 1 exits immediately; its connection teardown or rank 0's
		// deadline both surface as errors, never a hang.
		return nil
	})
	if err == nil {
		t.Fatal("a hung peer must produce an error")
	}
	if !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("error should implicate the waiting rank: %v", err)
	}
}

func TestTCPBadTimeoutEnvFails(t *testing.T) {
	// A DEVIGO_TCP_TIMEOUT that is not a positive duration must fail the
	// world with an error naming the variable, not run on the default.
	for _, bad := range []string{"soon", "-1s"} {
		t.Setenv(TCPTimeoutEnvVar, bad)
		err := RunTCPLocal(2, 0, func(c *Comm) error { return nil })
		if err == nil {
			t.Fatalf("%s=%q accepted", TCPTimeoutEnvVar, bad)
		}
		for _, frag := range []string{TCPTimeoutEnvVar, fmt.Sprintf("%q", bad), "positive Go duration"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s=%q: error %q lacks %q", TCPTimeoutEnvVar, bad, err, frag)
			}
		}
	}
}

func TestTCPDialRetryWaitsForLateListener(t *testing.T) {
	// Ranks rarely start simultaneously; the dialer's backoff must ride
	// out a listener that comes up late. RunTCPLocal pre-binds, so
	// build the world by hand with rank 1's listener deliberately nil
	// and its transport started after a delay.
	addrs, err := FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Rank 1 dials rank 0, which doesn't listen yet.
		tr, err := NewTCPTransport(TCPConfig{Rank: 1, Addrs: addrs, Timeout: 10 * time.Second})
		if err != nil {
			errs <- err
			return
		}
		defer tr.Close()
		if err := tr.Send(0, 1, []float32{7}); err != nil {
			errs <- err
		}
	}()
	go func() {
		defer wg.Done()
		time.Sleep(300 * time.Millisecond) // rank 0 is late
		tr, err := NewTCPTransport(TCPConfig{Rank: 0, Addrs: addrs, Timeout: 10 * time.Second})
		if err != nil {
			errs <- err
			return
		}
		defer tr.Close()
		data := make([]float32, 1)
		n, err := tr.Recv(1, 1, data)
		if err != nil {
			errs <- err
			return
		}
		if n != 1 || data[0] != 7 {
			errs <- fmt.Errorf("late-listener world delivered %v", data[:n])
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestTCPStatsAccounting(t *testing.T) {
	// Transport-level stats must count messages and payload bytes.
	err := RunTCPLocal(2, 10*time.Second, func(c *Comm) error {
		peer := 1 - c.Rank()
		c.Send(peer, 1, make([]float32, 10))
		c.Send(peer, 2, make([]float32, 5))
		buf := make([]float32, 10)
		c.Recv(peer, 1, buf)
		c.Recv(peer, 2, buf)
		st := c.Transport().Stats()
		if st.MsgsSent != 2 || st.BytesSent != 60 {
			return fmt.Errorf("stats: %+v, want 2 msgs / 60 bytes", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadHostfile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/hosts"
	content := "# rank addresses\n127.0.0.1:9001\n\n127.0.0.1:9002 # rank 1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	addrs, err := ReadHostfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != "127.0.0.1:9001" || addrs[1] != "127.0.0.1:9002" {
		t.Fatalf("parsed %v", addrs)
	}
	if err := os.WriteFile(path, []byte("not-an-address\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHostfile(path); err == nil {
		t.Fatal("malformed hostfile line must be rejected")
	}
}
