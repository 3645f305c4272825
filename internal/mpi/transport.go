package mpi

// Transport is the point-to-point delivery substrate a Comm runs over.
// Two implementations exist: the in-process channel/mailbox runtime
// (package default — ranks are goroutines of one world) and the TCP
// transport (rank-per-process over real sockets). Everything above a
// Comm — exchangers, tags, collectives, Cartesian communicators — is
// transport-neutral: the collectives are built on Send/Recv alone and
// the halo exchangers only ever see a *Comm.
//
// # Delivery contract
//
// Messages from one source are matched by (source, tag) in posting
// order: two messages with the same source and tag are received in the
// order they were sent, and messages with different tags never reorder
// a matching receive (MPI's non-overtaking rule). Tags are
// non-negative and fit in 31 bits (the collective tag space starts at
// 1<<30).
//
// # Buffer ownership
//
// A transport snapshots the payload *before Send returns* (post-time
// ownership): the caller may mutate or reuse the buffer as soon as the
// call comes back, and the receiver is guaranteed to observe the
// values the buffer held at post time, on every transport — not an
// accident of the in-process implementation. Slices returned by Recv
// and TryRecv are owned by the caller; the transport never touches
// them again.
//
// # Failure
//
// Transports report failures (peer death, deadline expiry, teardown)
// as errors rather than deadlocking; the Comm layer converts them to
// panics that the world runners (RunRanks, World.Run, RunTCPLocal,
// RunRank) recover into a per-rank error. A failed rank fails its world:
// the runner makes its peers' receives fail too, and returns the first
// failure — the root cause — once every rank has unwound.
type Transport interface {
	// Rank returns the calling rank.
	Rank() int
	// Size returns the world size.
	Size() int
	// Send ships data to dst under tag, snapshotting the payload before
	// returning. dst must be a valid rank other than the caller's own
	// (ProcNull short-circuits at the Comm layer).
	Send(dst, tag int, data []float32) error
	// Recv blocks until the oldest not-yet-received message from src
	// with the given tag arrives and returns its payload (owned by the
	// caller). Implementations with a real wire turn a hung peer into a
	// deadline error instead of blocking forever.
	Recv(src, tag int) ([]float32, error)
	// TryRecv returns the oldest matching message if one has already
	// been delivered, without blocking.
	TryRecv(src, tag int) ([]float32, bool, error)
	// Stats returns the calling rank's accounting.
	Stats() Stats
	// Close tears the transport down; subsequent and in-flight
	// operations fail with an error rather than hanging.
	Close() error
}

// Stats accumulates per-rank communication accounting, used by tests
// (paper Table I) and cross-checked against the performance model.
type Stats struct {
	MsgsSent  int
	BytesSent int64
	// RecvParks counts the receives that outlasted the poll and parked the
	// receiving goroutine: the peer was later than pollBound, i.e. the
	// ranks are imbalanced (or the wire is slow), not merely out of phase.
	RecvParks int
}
