// Package mpi implements a message-passing runtime with MPI semantics:
// point-to-point messages are matched by (source, tag) in posting order,
// and blocking sends and receives, collectives and Cartesian
// communicators are provided. Both transports deliver without the
// receiver's help, so there is no nonblocking receive and no progress to
// prod: a receive happens where the caller waits for it.
//
// Delivery is pluggable behind the Transport interface. The default
// in-process transport runs every rank as a goroutine of one world —
// the substitute substrate for the MPI library + cluster of the paper
// (docs/ARCHITECTURE.md, "The transport layer"): the generated
// communication schedules run for real over this runtime, so
// distributed-versus-serial equivalence is testable, while wall-clock
// behaviour of the interconnect is modeled separately by
// internal/perfmodel. The TCP transport (tcp.go) runs one
// rank per OS process over real sockets with length-prefixed frames, so
// the same schedules additionally exercise serialization, the wire, and
// failure. Collectives are written purely on point-to-point Send/Recv
// (binomial-tree broadcast, gather and scatter through a root, and an
// allreduce that gathers to rank 0, folds in ascending rank order and
// broadcasts), so they work identically over any transport. A run
// reduces once, when it ends: its receivers sum rank-locally every step
// and its traces and norm are allreduced after the last one.
package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// ProcNull is the null process rank: sends and receives addressed to it are
// no-ops, mirroring MPI_PROC_NULL.
const ProcNull = -1

// Comm is a rank's handle on the world — the equivalent of MPI_COMM_WORLD
// as seen from one process — layered over a Transport.
type Comm struct {
	rank int
	size int
	t    Transport
	// collSeq numbers collective operations so that their internal
	// point-to-point traffic cannot be confused with user messages.
	collSeq int
}

// NewComm wraps a transport in a communicator.
func NewComm(t Transport) *Comm {
	return &Comm{rank: t.Rank(), size: t.Size(), t: t}
}

// Rank returns the calling rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.size }

// Transport exposes the delivery substrate (for transport-level
// accounting and teardown).
func (c *Comm) Transport() Transport { return c.t }

// Send performs a blocking standard-mode send. The payload is
// snapshotted before Send returns (the Transport contract's post-time
// ownership), so the caller may reuse the buffer immediately — buffered
// semantics, matching what a correct MPI program may assume only of
// MPI_Bsend, but what the generated code here relies on deliberately.
func (c *Comm) Send(dst, tag int, data []float32) {
	if dst == ProcNull {
		return
	}
	c.checkRank(dst)
	if err := c.t.Send(dst, tag, data); err != nil {
		panic(&opError{fmt.Errorf("send to %d tag %d: %w", dst, tag, err)})
	}
}

// Recv blocks until a message with the given source and tag arrives, copies
// it into buf and returns the element count. The message length must not
// exceed len(buf): a longer message fails the rank with an error naming
// the source, the tag and both lengths.
func (c *Comm) Recv(src, tag int, buf []float32) int {
	if src == ProcNull {
		return 0
	}
	c.checkRank(src)
	n, err := c.t.Recv(src, tag, buf)
	if err != nil {
		panic(&opError{err})
	}
	return n
}

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= c.size {
		panic(&opError{fmt.Errorf("invalid rank %d (size %d)", r, c.size)})
	}
}

// opError is the panic value of a failed Comm operation. It names no
// rank: runRank names the failing rank once, "mpi: rank r: …".
type opError struct{ err error }

func (e *opError) Error() string { return e.err.Error() }
func (e *opError) Unwrap() error { return e.err }

// RunRank executes body as one rank over an established transport — the
// single-process counterpart of RunRanks used by rank-per-process
// transports — so a returned error, a panic or a transport failure (a
// hung peer's recv deadline, a dead connection) surfaces as one clean
// error naming the rank, and a non-zero exit, instead of a deadlock or a
// stack trace.
func RunRank(t Transport, body func(c *Comm) error) error {
	return runRank(NewComm(t), body)
}

// runRank is the one place a rank body's failure becomes an error:
// "mpi: rank r: …" for a returned error and a failed operation alike, and
// "mpi: rank r: panic: …" for any other panic.
func runRank(c *Comm, body func(c *Comm) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if op, ok := rec.(*opError); ok {
				err = fmt.Errorf("mpi: rank %d: %w", c.rank, op)
			} else {
				err = fmt.Errorf("mpi: rank %d: panic: %v", c.rank, rec)
			}
		}
	}()
	if err := body(c); err != nil {
		return fmt.Errorf("mpi: rank %d: %w", c.rank, err)
	}
	return nil
}

// ErrPeerFailed marks a failure that only follows another rank's: the
// in-process world's poison and a TCP rank's lost connection. A rank
// process it fails exits ExitPeerFailed.
var ErrPeerFailed = errors.New("mpi: a peer failed")

// peerFailure marks err with ErrPeerFailed, keeping its text.
type peerFailure struct{ error }

func (e peerFailure) Unwrap() []error { return []error{e.error, ErrPeerFailed} }

// runWorld is the one spawn / recover / collect implementation behind
// World.Run, RunRanks and RunTCPLocal. open establishes rank r's Comm and
// returns its release function; the runner calls release with the rank's
// outcome as soon as its body ends, and release(err != nil) must make
// every peer's pending and future receives fail (the in-process world
// poisons its mailboxes, a TCP rank drops its connections). Once every
// rank has ended it returns the lowest rank's own failure — not a peer's
// ErrPeerFailed unwinding, unless no other failure exists — so the root
// cause named is the same on every run.
func runWorld(n int, open func(rank int) (*Comm, func(error), error), body func(c *Comm) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, release, err := open(rank)
			if err == nil {
				err = runRank(c, body)
			}
			errs[rank] = err
			if release != nil {
				release(err)
			}
		}(r)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrPeerFailed) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}
