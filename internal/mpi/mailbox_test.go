package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The mailbox's wait discipline — poll, yielding, for pollBound, then park
// — pinned through the receiver's RecvParks counter rather than the clock:
// whether a receive parked is a count, how long it took is weather.

// testMailbox returns a mailbox and a reader of its receiver's RecvParks.
func testMailbox() (*mailbox, func() int64) {
	owner := &counters{}
	return newMailbox(owner), owner.recvParks.Load
}

// oneP runs the rest of the test on a single P: a goroutine started with
// `go` then cannot run before the test goroutine yields, which a pop does
// only from inside its poll — "during the poll window" without a clock.
func oneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// popOne receives a message of at most one element from m.
func popOne(m *mailbox, tag int, d time.Duration) ([]float32, error) {
	buf := make([]float32, 1)
	n, err := m.pop(tag, pollBound, d, buf)
	return buf[:n], err
}

// onceParked calls f as soon as the mailbox's receiver has parked.
func onceParked(parks func() int64, f func()) {
	go func() {
		for parks() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		f()
	}()
}

func TestMailboxTakeZeroesVacatedSlot(t *testing.T) {
	// Regression: the slice delete in take() must zero the vacated tail
	// slot. A received payload belongs to the free list, which hands it to
	// the next send; a stale queue slot would be a second reference to it.
	m, _ := testMailbox()
	m.push(1, make([]float32, 4))
	m.push(2, make([]float32, 1<<20))
	if _, err := m.pop(1, pollBound, 0, make([]float32, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.pop(2, pollBound, 0, make([]float32, 1<<20)); err != nil {
		t.Fatal(err)
	}
	// Queue is empty but its backing array still has the slots the two
	// messages occupied; both must have been zeroed on removal.
	full := m.queue[:cap(m.queue)]
	for i, msg := range full {
		if msg.data != nil {
			t.Fatalf("vacated slot %d still references a %d-element payload", i, len(msg.data))
		}
	}
	if len(m.free) != 2 {
		t.Fatalf("%d payloads on the free list after two receives, want 2", len(m.free))
	}
}

func TestMailboxFreeListFitsAndKeepsLargest(t *testing.T) {
	// A send takes the smallest free payload that fits, so a small message
	// does not take the buffer a large one needs; a full list makes room
	// for a larger payload by dropping its smallest, so a burst of small
	// messages cannot leave every large one allocating for good.
	m, _ := testMailbox()
	small, large := make([]float32, 4), make([]float32, 64)
	m.mu.Lock()
	m.recycle(large)
	m.recycle(small)
	m.mu.Unlock()
	if p := m.payload(3); &p[:1][0] != &small[0] {
		t.Fatal("a 3-element message did not take the 4-element payload")
	}
	if p := m.payload(10); &p[:1][0] != &large[0] {
		t.Fatal("a 10-element message did not take the 64-element payload")
	}
	m.mu.Lock()
	for i := 0; i < maxFree; i++ {
		m.recycle(make([]float32, 4))
	}
	m.recycle(large)
	m.mu.Unlock()
	if len(m.free) != maxFree {
		t.Fatalf("free list holds %d payloads, want %d", len(m.free), maxFree)
	}
	if p := m.payload(64); &p[0] != &large[0] {
		t.Fatal("a full free list of small payloads dropped the large one")
	}
}

func TestMailboxPollDeliversWithoutParking(t *testing.T) {
	oneP(t)
	m, parks := testMailbox()
	m.push(1, []float32{1})
	if data, err := popOne(m, 1, 0); err != nil || data[0] != 1 {
		t.Fatalf("queued message: %v %v", data, err)
	}
	go m.push(2, []float32{2}) // runs when pop first yields
	if data, err := popOne(m, 2, 0); err != nil || data[0] != 2 {
		t.Fatalf("message pushed during the poll: %v %v", data, err)
	}
	if n := parks(); n != 0 {
		t.Fatalf("%d of 2 receives parked, want 0: the poll must find a message that is there or arrives while it yields", n)
	}
}

func TestMailboxLateMessageParksOnce(t *testing.T) {
	m, parks := testMailbox()
	onceParked(parks, func() {
		time.Sleep(5 * time.Millisecond)
		m.push(3, []float32{42})
	})
	err := within(t, 30*time.Second, func() error {
		data, err := popOne(m, 3, 0)
		if err == nil && (len(data) != 1 || data[0] != 42) {
			err = fmt.Errorf("got %v", data)
		}
		return err
	})
	if err != nil {
		t.Fatalf("a message later than the poll bound must still be delivered: %v", err)
	}
	if n := parks(); n != 1 {
		t.Fatalf("RecvParks = %d, want 1", n)
	}
}

func TestMailboxFailWhilePollingAndWhileParked(t *testing.T) {
	oneP(t)
	boom := errors.New("boom")

	m, parks := testMailbox()
	go m.fail(boom) // runs when pop first yields
	if _, err := popOne(m, 1, 0); !errors.Is(err, boom) {
		t.Fatalf("fail during the poll: got %v, want the poison", err)
	}
	if n := parks(); n != 0 {
		t.Fatalf("poisoned during the poll yet parked %d times", n)
	}

	m, parks = testMailbox()
	m.push(2, []float32{7})
	onceParked(parks, func() { m.fail(boom) })
	err := within(t, 30*time.Second, func() error { _, err := popOne(m, 1, 0); return err })
	if !errors.Is(err, boom) {
		t.Fatalf("fail while parked: got %v, want the poison", err)
	}
	// A queued message still wins over the poison.
	if data, err := popOne(m, 2, 0); err != nil || data[0] != 7 {
		t.Fatalf("message queued before the poison: %v %v", data, err)
	}
}

func TestMailboxPopTimeout(t *testing.T) {
	m, parks := testMailbox()
	// A deadline longer than the poll: the poll counts against it, so the
	// receive parks once for what is left and fails no earlier than d.
	// (No later than d + pollBound by construction; the clock on a shared
	// host cannot assert that, so the upper side is only the hang guard.)
	const d = 50 * time.Millisecond
	start := time.Now()
	err := within(t, 30*time.Second, func() error { _, err := popOne(m, 5, d); return err })
	if !errors.Is(err, errRecvTimeout) {
		t.Fatalf("pop with a deadline on an empty mailbox: got %v, want errRecvTimeout", err)
	}
	if time.Since(start) < d {
		t.Fatal("pop returned before its deadline")
	}
	if n := parks(); n != 1 {
		t.Fatalf("RecvParks = %d after a timed-out receive, want 1", n)
	}
	// A deadline inside the poll is noticed when the poll ends: no park,
	// no timer.
	start = time.Now()
	if _, err := popOne(m, 5, pollBound/4); !errors.Is(err, errRecvTimeout) {
		t.Fatalf("deadline shorter than the poll: got %v, want errRecvTimeout", err)
	}
	if time.Since(start) < pollBound/4 {
		t.Fatal("pop returned before its deadline")
	}
	if n := parks(); n != 1 {
		t.Fatalf("a deadline shorter than the poll parked (RecvParks %d, want still 1)", n)
	}
	// What the poll leaves of d can be next to nothing; the timer's
	// broadcast must not slip in before the wait it is meant to wake.
	err = within(t, 30*time.Second, func() error {
		for i := 0; i < 200; i++ {
			if _, err := popOne(m, 5, pollBound+time.Microsecond); !errors.Is(err, errRecvTimeout) {
				return fmt.Errorf("round %d: got %v, want errRecvTimeout", i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A message that arrives while parked under a deadline is delivered.
	before := parks()
	onceParked(func() int64 { return parks() - before }, func() { m.push(6, []float32{42}) })
	data, err := popOne(m, 6, 30*time.Second)
	if err != nil || len(data) != 1 || data[0] != 42 {
		t.Fatalf("pop missed a delivered message: %v %v", data, err)
	}
}

func TestMailboxOrderAcrossPollAndPark(t *testing.T) {
	// Same-tag FIFO and different-tag non-overtaking must not depend on
	// which phase of pop a message met: a1 is queued before the receive,
	// a2 and b1 arrive after the receiver — waiting on b, with a1 in front
	// of it — has parked.
	const a, b = 1, 2
	m, parks := testMailbox()
	m.push(a, []float32{1})
	onceParked(parks, func() {
		m.push(a, []float32{2})
		m.push(b, []float32{10})
	})
	err := within(t, 30*time.Second, func() error {
		for _, want := range []struct {
			tag int
			val float32
		}{{b, 10}, {a, 1}, {a, 2}} {
			data, err := popOne(m, want.tag, 0)
			if err != nil {
				return err
			}
			if len(data) != 1 || data[0] != want.val {
				return fmt.Errorf("tag %d: got %v, want [%v]", want.tag, data, want.val)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := parks(); n != 1 {
		t.Fatalf("RecvParks = %d, want 1 (the receive on b)", n)
	}
}

func TestMailboxRingWithMoreRanksThanProcessors(t *testing.T) {
	// Eight polling ranks on fewer processors: every rank's poll has to
	// hand its P to the ranks it is waiting for. A ninth goroutine reads
	// the rank-owned accounting all the while (for the race detector).
	const ranks, rounds, count = 8, 200, 64
	if ranks <= runtime.NumCPU() {
		oneP(t)
	}
	w := NewWorld(ranks)
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-done:
				return
			default:
				w.StatsSnapshot()
				runtime.Gosched()
			}
		}
	}()
	err := within(t, 60*time.Second, func() error {
		return w.run(func(c *Comm) error {
			right, left := (c.Rank()+1)%ranks, (c.Rank()+ranks-1)%ranks
			out, in := make([]float32, count), make([]float32, count)
			for round := 0; round < rounds; round++ {
				for i := range out {
					out[i] = float32(c.Rank()*1000 + round + i)
				}
				c.Send(right, 5, out)
				c.Recv(left, 5, in)
				for i, v := range in {
					if want := float32(left*1000 + round + i); v != want {
						return fmt.Errorf("round %d elem %d from rank %d: got %v, want %v", round, i, left, v, want)
					}
				}
			}
			return nil
		})
	})
	close(done)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	for rank, st := range w.StatsSnapshot() {
		if st.MsgsSent != rounds || st.BytesSent != rounds*count*4 {
			t.Errorf("rank %d: %d messages / %d bytes, want %d / %d", rank, st.MsgsSent, st.BytesSent, rounds, rounds*count*4)
		}
	}
}

func TestMailboxPollYieldsTheProcessor(t *testing.T) {
	// With one P the peer can only send while the poller yields, so a poll
	// that spins without runtime.Gosched burns its whole bound and parks
	// on every receive of this ping-pong; one that yields almost never
	// parks. The count, not the clock, tells them apart.
	oneP(t)
	const rounds = 2000
	w := NewWorld(2)
	err := within(t, 120*time.Second, func() error {
		return w.Run(func(c *Comm) {
			peer := 1 - c.Rank()
			buf := []float32{0}
			for i := 0; i < rounds; i++ {
				if c.Rank() == 0 {
					c.Send(peer, 9, buf)
					c.Recv(peer, 9, buf)
				} else {
					c.Recv(peer, 9, buf)
					c.Send(peer, 9, buf)
				}
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, st := range w.StatsSnapshot() {
		if st.MsgsSent != rounds {
			t.Errorf("rank %d sent %d messages, want %d", rank, st.MsgsSent, rounds)
		}
		t.Logf("rank %d parked on %d of %d receives", rank, st.RecvParks, rounds)
		if st.RecvParks > rounds/20 {
			t.Errorf("rank %d parked on %d of %d receives (limit 5%%): the poll is not yielding its P to the sender", rank, st.RecvParks, rounds)
		}
	}
}

func TestMailboxPollZeroParksAtOnce(t *testing.T) {
	// The TCP transport's wait, a poll of 0: a queued message is taken
	// without parking, an empty mailbox parks at once, and a deadline
	// still expires.
	m, parks := testMailbox()
	buf := make([]float32, 1)
	m.push(1, []float32{3})
	if n, err := m.pop(1, 0, 0, buf); err != nil || n != 1 || buf[0] != 3 || parks() != 0 {
		t.Fatalf("queued message: n %d buf %v err %v, RecvParks %d (want 0)", n, buf, err, parks())
	}
	onceParked(parks, func() { m.push(2, []float32{4}) })
	err := within(t, 30*time.Second, func() error { _, err := m.pop(2, 0, 0, buf); return err })
	if err != nil || buf[0] != 4 || parks() != 1 {
		t.Fatalf("message sent while parked: buf %v err %v, RecvParks %d (want 1)", buf, err, parks())
	}
	const d = 20 * time.Millisecond
	start := time.Now()
	if _, err := m.pop(3, 0, d, buf); !errors.Is(err, errRecvTimeout) || time.Since(start) < d {
		t.Fatalf("deadline: got %v after %s, want errRecvTimeout after %s", err, time.Since(start), d)
	}
	if n := parks(); n != 2 {
		t.Fatalf("RecvParks = %d after a timed-out receive, want 2", n)
	}
}
