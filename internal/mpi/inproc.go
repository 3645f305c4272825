package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file is the in-process transport: ranks are goroutines of one
// World, and delivery is a matrix of mailboxes (one per directed rank
// pair). It is the default substrate — zero behavior change from the
// pre-Transport runtime — and the fixture the transport conformance
// suite measures the TCP implementation against.

// message is an in-flight point-to-point payload. Data is owned by the
// mailbox once enqueued (the sender copies).
type message struct {
	tag  int
	data []float32
}

// mailbox queues messages from one fixed sender to one fixed receiver.
// The TCP transport reuses it as the per-source inbox its connection
// readers feed, which is why pop takes a deadline: a wire can go silent,
// a goroutine cannot. Both transports poison it (fail) when a peer dies.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
	// err poisons the mailbox: every blocked and future pop fails with
	// it (connection teardown, peer death).
	err error
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push enqueues a message (sender side).
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

// take removes and returns queue[i], zeroing the vacated tail slot so
// the dropped message's payload (a large halo buffer, potentially) is
// GC-able as soon as the receiver drops it — a bare
// append(q[:i], q[i+1:]...) would leave the tail slot aliasing it for
// the queue's lifetime.
func (m *mailbox) take(i int) []float32 {
	data := m.queue[i].data
	copy(m.queue[i:], m.queue[i+1:])
	m.queue[len(m.queue)-1] = message{}
	m.queue = m.queue[:len(m.queue)-1]
	return data
}

// errRecvTimeout marks a pop deadline expiry.
var errRecvTimeout = errors.New("receive deadline exceeded")

// pop removes and returns the first message with the given tag, blocking
// until one arrives, the mailbox is poisoned, or — when d > 0 — the
// deadline d elapses (errRecvTimeout): a failed or hung peer becomes an
// error instead of a deadlock. d <= 0 means no deadline.
func (m *mailbox) pop(tag int, d time.Duration) ([]float32, error) {
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
		// sync.Cond has no timed wait; a timer broadcast wakes the waiters
		// so the deadline check below runs.
		timer := time.AfterFunc(d, m.cond.Broadcast)
		defer timer.Stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i := range m.queue {
			if m.queue[i].tag == tag {
				return m.take(i), nil
			}
		}
		if m.err != nil {
			return nil, m.err
		}
		if d > 0 && !time.Now().Before(deadline) {
			return nil, fmt.Errorf("%w (%s)", errRecvTimeout, d)
		}
		m.cond.Wait()
	}
}

// tryPop removes the first message with the given tag if present.
func (m *mailbox) tryPop(tag int) ([]float32, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.queue {
		if m.queue[i].tag == tag {
			return m.take(i), true, nil
		}
	}
	return nil, false, m.err
}

// World is a set of communicating ranks within the process.
type World struct {
	size      int
	mailboxes [][]*mailbox // [src][dst]

	statsMu sync.Mutex
	stats   []Stats
}

// NewWorld creates a world of n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		panic("mpi: world size must be >= 1")
	}
	w := &World{size: n, stats: make([]Stats, n)}
	w.mailboxes = make([][]*mailbox, n)
	for s := 0; s < n; s++ {
		w.mailboxes[s] = make([]*mailbox, n)
		for d := 0; d < n; d++ {
			w.mailboxes[s][d] = newMailbox()
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// StatsSnapshot returns a snapshot of per-rank accounting.
func (w *World) StatsSnapshot() []Stats {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return append([]Stats(nil), w.stats...)
}

// Run executes f once per rank, each on its own goroutine, and waits for
// all of them: RunRanks for bodies that have no error to return. A panic
// on any rank fails the world (see runWorld).
func (w *World) Run(f func(c *Comm)) error {
	return w.run(func(c *Comm) error { f(c); return nil })
}

// RunRanks executes body once per rank of a fresh in-process world of n
// ranks and returns the first rank's failure, nil when every rank
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
	err = fmt.Errorf("world failed: %w", err)
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

// Send copies data (the snapshot the Transport contract requires) and
// enqueues it in the destination's mailbox.
func (t *inprocTransport) Send(dst, tag int, data []float32) error {
	buf := make([]float32, len(data))
	copy(buf, data)
	t.world.mailboxes[t.rank][dst].push(tag, buf)
	w := t.world
	w.statsMu.Lock()
	w.stats[t.rank].MsgsSent++
	w.stats[t.rank].BytesSent += int64(len(data)) * 4
	w.statsMu.Unlock()
	return nil
}

// Recv blocks on the source mailbox until a matching message arrives or
// the world fails. Goroutine ranks cannot hang the way a remote peer can,
// so there is no deadline: a rank that dies poisons the mailbox instead
// (World.poison), and a lost message is a schedule bug.
func (t *inprocTransport) Recv(src, tag int) ([]float32, error) {
	return t.world.mailboxes[src][t.rank].pop(tag, 0)
}

// TryRecv polls the source mailbox.
func (t *inprocTransport) TryRecv(src, tag int) ([]float32, bool, error) {
	return t.world.mailboxes[src][t.rank].tryPop(tag)
}

// Stats returns the calling rank's send accounting.
func (t *inprocTransport) Stats() Stats {
	t.world.statsMu.Lock()
	defer t.world.statsMu.Unlock()
	return t.world.stats[t.rank]
}

// Close is a no-op: the world dies with its goroutines.
func (t *inprocTransport) Close() error { return nil }
