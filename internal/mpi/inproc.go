package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the in-process transport: ranks are goroutines of one
// World, and delivery is a matrix of mailboxes (one per directed rank
// pair). It is the default substrate — zero behavior change from the
// pre-Transport runtime — and the fixture the transport conformance
// suite measures the TCP implementation against.

// message is an in-flight point-to-point payload. Data is owned by the
// mailbox from push until a receive has copied it out, when it returns to
// the mailbox's free list.
type message struct {
	tag  int
	data []float32
}

// maxFree bounds a mailbox's free list. A steady exchange keeps one
// payload per message in flight on the pair: one per exchange point and
// phase of a step, twice that while the receiver is a step behind. A
// burst beyond the bound leaves its surplus to the collector.
const maxFree = 64

// mailbox queues messages from one fixed sender to one fixed receiver.
// The TCP transport reuses it as the per-source inbox its connection
// readers feed, which is why pop takes a deadline: a wire can go silent,
// a goroutine cannot. Both transports poison it (fail) when a peer dies.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
	// free holds payloads whose messages have been received, for later
	// messages to fill (payload): a steady exchange cycles the same few
	// buffers instead of allocating one per message.
	free [][]float32
	// err poisons the mailbox: every blocked and future pop fails with
	// it (connection teardown, peer death).
	err error
	// owner is the receiving rank's accounting (RecvParks).
	owner *counters
}

// newMailbox returns an empty mailbox whose receiver accounts to owner.
func newMailbox(owner *counters) *mailbox {
	m := &mailbox{owner: owner}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// counters is one rank's Stats while the world runs. Only the owning rank
// writes it — its sends, and the pops on the mailboxes it receives from —
// so no lock is shared between ranks; the fields are atomic so any
// goroutine (World.StatsSnapshot, a test) can read it mid-run. The pad
// keeps neighbouring ranks' counters off one cache line.
type counters struct {
	msgsSent  atomic.Int64
	bytesSent atomic.Int64
	recvParks atomic.Int64
	_         [40]byte
}

// sent accounts one message of n elements.
func (c *counters) sent(n int) {
	c.msgsSent.Add(1)
	c.bytesSent.Add(int64(n) * 4)
}

// snapshot reads the counters into a Stats. Fields are read one by one: a
// snapshot taken by another goroutine mid-send may count a message whose
// bytes it has not yet seen; the owning rank, and anyone after the world
// has ended, reads exact values.
func (c *counters) snapshot() Stats {
	return Stats{
		MsgsSent:  int(c.msgsSent.Load()),
		BytesSent: c.bytesSent.Load(),
		RecvParks: int(c.recvParks.Load()),
	}
}

// payload returns an n-element buffer for a message to this mailbox: the
// smallest free payload that holds n elements, or a new one. Best fit
// keeps large payloads for large messages, so a steady mix of message
// sizes settles on one buffer per message in flight.
func (m *mailbox) payload(n int) []float32 {
	if n == 0 {
		return nil
	}
	m.mu.Lock()
	best := -1
	for i, p := range m.free {
		if cap(p) >= n && (best < 0 || cap(p) < cap(m.free[best])) {
			best = i
		}
	}
	var p []float32
	if best >= 0 {
		last := len(m.free) - 1
		p = m.free[best]
		m.free[best] = m.free[last]
		m.free[last] = nil
		m.free = m.free[:last]
	}
	m.mu.Unlock()
	if p == nil {
		return make([]float32, n)
	}
	return p[:n]
}

// recycle returns a received payload to the free list (mu held). A full
// list keeps its largest payloads.
func (m *mailbox) recycle(p []float32) {
	if cap(p) == 0 {
		return
	}
	if len(m.free) < maxFree {
		m.free = append(m.free, p)
		return
	}
	small := 0
	for i := range m.free {
		if cap(m.free[i]) < cap(m.free[small]) {
			small = i
		}
	}
	if cap(m.free[small]) < cap(p) {
		m.free[small] = p
	}
}

// push enqueues a message (sender side); the mailbox owns data from here
// on.
func (m *mailbox) push(tag int, data []float32) {
	m.mu.Lock()
	m.queue = append(m.queue, message{tag: tag, data: data})
	m.mu.Unlock()
	m.cond.Broadcast()
}

// fail poisons the mailbox with err and wakes every waiter.
func (m *mailbox) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take removes queue[i], copies its payload into buf and returns the
// payload to the free list (mu held). The vacated tail slot is zeroed: a
// bare append(q[:i], q[i+1:]...) would leave it a second reference to a
// payload the free list may already have handed to the next send. A
// payload longer than buf is consumed all the same, as MPI_ERR_TRUNCATE
// consumes its message, and reported as an error.
func (m *mailbox) take(i int, buf []float32) (int, error) {
	data := m.queue[i].data
	copy(m.queue[i:], m.queue[i+1:])
	m.queue[len(m.queue)-1] = message{}
	m.queue = m.queue[:len(m.queue)-1]
	n := copy(buf, data)
	m.recycle(data)
	if n < len(data) {
		return 0, fmt.Errorf("message truncated (%d elements into a buffer of %d)", len(data), len(buf))
	}
	return n, nil
}

// errRecvTimeout marks a pop deadline expiry.
var errRecvTimeout = errors.New("receive deadline exceeded")

// pollBound is how long an in-process receive polls its mailbox,
// yielding the processor between polls, before it parks on the condition
// variable — the wait discipline of the MPI libraries this runtime stands
// in for, which busy-poll their receives.
//
// In process, parking is the expensive way to wait for a message that is
// about to arrive: on the 2-vCPU development host a parked receive of the
// 2-rank strong-scaling benchmark waits ≈ 105 µs per step where a polling
// one waits ≈ 15–25 µs, so a park + wake costs ≈ 90 µs and the bound must
// not be lower than that. Measured on that workload (useful GPts/s, 0.25
// parked): 5 µs 0.25, 20 µs 0.25–0.27, 50 µs 0.37, 200 µs 0.37, 1 ms 0.36
// — anything past the wake-up cost gets all of the gain, and 200 µs
// leaves a margin over it for slower hosts.
//
// Over TCP a rank is another process, so the yield hands the processor to
// nobody and the poll takes a vCPU from the peer it waits for: the TCP
// transport parks at once (a poll of 0). On the same host (acoustic 256²
// so-8 diag, NT 1000, median useful Mpts/s of 5 rounds), a 200 µs → 0
// poll took 4 processes from 42 to 78 at k=1 and 90 to 119 at k=4, and 2
// processes from 111 to 129 at k=1 and 135 to 135 at k=4; polls of 20 and
// 50 µs came out between the two on 4 processes.
//
// A receive that still parks met a peer later than its bound — real
// imbalance, counted in Stats.RecvParks (over TCP, every receive that
// found its mailbox empty).
const pollBound = 200 * time.Microsecond

// pop receives the first message with the given tag into buf and returns
// its element count, waiting until one arrives, the mailbox is poisoned,
// or — when d > 0 — the deadline d elapses (errRecvTimeout): a failed or
// hung peer becomes an error instead of a deadlock. d <= 0 means no
// deadline. It polls for poll (the transport's bound; 0 parks at once)
// and parks after that; the poll counts against d, so a deadline is late
// by at most one bound.
func (m *mailbox) pop(tag int, poll, d time.Duration, buf []float32) (int, error) {
	start := time.Now()
	for poll > 0 {
		n, ok, err := m.tryPop(tag, buf)
		if ok || err != nil {
			return n, err
		}
		if time.Since(start) >= poll {
			break
		}
		// Yield rather than spin: when ranks outnumber processors the
		// sender may be waiting for this one.
		runtime.Gosched()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	parked := false
	for {
		if n, ok, err := m.match(tag, buf); ok || err != nil {
			return n, err
		}
		if d > 0 && time.Since(start) >= d {
			return 0, fmt.Errorf("%w (%s)", errRecvTimeout, d)
		}
		if !parked {
			parked = true
			m.owner.recvParks.Add(1)
			if d > 0 {
				// sync.Cond has no timed wait; a timer broadcast wakes the
				// waiter so the deadline check above runs. What is left of
				// d can be arbitrarily short, so the callback passes
				// through mu — held here until Wait has registered — or
				// its broadcast could come before the wait and be lost.
				timer := time.AfterFunc(d-time.Since(start), func() {
					m.mu.Lock()
					m.mu.Unlock()
					m.cond.Broadcast()
				})
				defer timer.Stop()
			}
		}
		m.cond.Wait()
	}
}

// tryPop receives the first message with the given tag into buf if one is
// queued.
func (m *mailbox) tryPop(tag int, buf []float32) (int, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.match(tag, buf)
}

// match is tryPop with mu held: a queued message wins over a poisoning.
func (m *mailbox) match(tag int, buf []float32) (int, bool, error) {
	for i := range m.queue {
		if m.queue[i].tag == tag {
			n, err := m.take(i, buf)
			return n, true, err
		}
	}
	return 0, false, m.err
}

// World is a set of communicating ranks within the process.
type World struct {
	size      int
	mailboxes [][]*mailbox // [src][dst]
	stats     []counters   // [rank], each written by its rank only
}

// NewWorld creates a world of n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		panic("mpi: world size must be >= 1")
	}
	w := &World{size: n, stats: make([]counters, n)}
	w.mailboxes = make([][]*mailbox, n)
	for s := 0; s < n; s++ {
		w.mailboxes[s] = make([]*mailbox, n)
		for d := 0; d < n; d++ {
			w.mailboxes[s][d] = newMailbox(&w.stats[d])
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// StatsSnapshot returns a snapshot of per-rank accounting.
func (w *World) StatsSnapshot() []Stats {
	out := make([]Stats, w.size)
	for r := range out {
		out[r] = w.stats[r].snapshot()
	}
	return out
}

// Run executes f once per rank, each on its own goroutine, and waits for
// all of them: RunRanks for bodies that have no error to return. A panic
// on any rank fails the world (see runWorld).
func (w *World) Run(f func(c *Comm)) error {
	return w.run(func(c *Comm) error { f(c); return nil })
}

// RunRanks executes body once per rank of a fresh in-process world of n
// ranks and returns the lowest rank's root cause, nil when every rank
// succeeded. n == 1 is an ordinary world of one: callers do not branch on
// serial.
func RunRanks(n int, body func(c *Comm) error) error {
	if n < 1 {
		return fmt.Errorf("mpi: world size %d < 1", n)
	}
	return NewWorld(n).run(body)
}

// run is runWorld over this world's mailboxes: a failed rank poisons them.
func (w *World) run(body func(c *Comm) error) error {
	return runWorld(w.size, func(rank int) (*Comm, func(error), error) {
		return NewComm(&inprocTransport{world: w, rank: rank}), w.poison, nil
	}, body)
}

// poison fails every mailbox of the world once a rank has failed: peers
// blocked in (or later reaching) a receive unwind instead of waiting for
// messages that will never be sent. A goroutine rank cannot time out the
// way a remote peer can, so this is the in-process hung-peer guarantee. A
// poisoned world stays failed.
func (w *World) poison(err error) {
	if err == nil {
		return
	}
	err = peerFailure{fmt.Errorf("world failed: %w", err)}
	for _, row := range w.mailboxes {
		for _, m := range row {
			m.fail(err)
		}
	}
}

// inprocTransport is one rank's handle on a World's mailbox matrix.
type inprocTransport struct {
	world *World
	rank  int
}

// Rank returns the calling rank.
func (t *inprocTransport) Rank() int { return t.rank }

// Size returns the world size.
func (t *inprocTransport) Size() int { return t.world.size }

// Send copies data into a payload recycled from the destination's mailbox
// (the snapshot the Transport contract requires) and enqueues it there.
func (t *inprocTransport) Send(dst, tag int, data []float32) error {
	m := t.world.mailboxes[t.rank][dst]
	p := m.payload(len(data))
	copy(p, data)
	m.push(tag, p)
	t.world.stats[t.rank].sent(len(data))
	return nil
}

// Recv waits on the source mailbox until a matching message arrives or
// the world fails. Goroutine ranks cannot hang the way a remote peer can,
// so there is no deadline: a rank that dies poisons the mailbox instead
// (World.poison), and a lost message is a schedule bug.
func (t *inprocTransport) Recv(src, tag int, buf []float32) (int, error) {
	n, err := t.world.mailboxes[src][t.rank].pop(tag, pollBound, 0, buf)
	if err != nil {
		return 0, fmt.Errorf("recv from rank %d tag %d: %w", src, tag, err)
	}
	return n, nil
}

// Stats returns the calling rank's accounting.
func (t *inprocTransport) Stats() Stats { return t.world.stats[t.rank].snapshot() }

// Close is a no-op: the world dies with its goroutines.
func (t *inprocTransport) Close() error { return nil }
