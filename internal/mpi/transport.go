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
// A receive copies into the caller's buffer, as MPI_Recv does: Recv
// fills buf with the matched payload and returns its element count. A payload longer than buf is consumed and reported as an
// error naming the source, the tag and both lengths.
//
// A send snapshots the payload *before Send returns* (post-time
// ownership): the caller may mutate or reuse the buffer as soon as the
// call comes back, and the receiver is guaranteed to observe the values
// the buffer held at post time, on every transport.
//
// Between the two, the transport owns the payload, and it recycles it:
// once a receive has copied a payload out, the next message on the same
// pair of ranks may be written into it. Neither side ever holds a
// transport's payload, so a steady exchange allocates none.
//
// # Failure
//
// Transports report failures (peer death, deadline expiry, teardown)
// as errors rather than deadlocking; the Comm layer adds the calling
// rank and converts them to panics that the world runners (RunRanks,
// World.Run, RunTCPLocal, RunRank) recover into a per-rank error. A
// failed rank fails its world: the runner makes its peers' receives fail
// too, and returns the lowest rank's root cause once every rank has
// unwound.
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
	// with the given tag arrives, copies its payload into buf and
	// returns the element count. Implementations with a real wire turn a
	// hung peer into a deadline error instead of blocking forever. Every
	// error names src and tag.
	Recv(src, tag int, buf []float32) (int, error)
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
	// RecvParks counts the receives that outlasted the transport's poll and
	// parked the receiving goroutine. In process the peer was later than
	// pollBound, i.e. the ranks are imbalanced, not merely out of phase;
	// over TCP, which parks at once, the message was not yet there.
	RecvParks int
}
