package mpi

import "fmt"

// Request is the handle of a nonblocking receive, completed by Wait or
// polled by Test — the counterpart of MPI_Request. Sends need none: the
// Transport contract snapshots a payload at post time, so a blocking Send
// is already an Isend whose buffer is reusable at once.
type Request struct {
	comm *Comm
	src  int
	tag  int
	buf  []float32
	done bool
	n    int
}

// Irecv posts a nonblocking receive into buf. Completion happens at Wait or
// a successful Test.
func (c *Comm) Irecv(src, tag int, buf []float32) *Request {
	if src == ProcNull {
		return &Request{comm: c, done: true}
	}
	c.checkRank(src)
	return &Request{comm: c, src: src, tag: tag, buf: buf}
}

// Wait blocks until the request completes and returns the received element
// count.
func (r *Request) Wait() int {
	if r.done {
		return r.n
	}
	data, err := r.comm.t.Recv(r.src, r.tag)
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d: irecv from %d tag %d: %v",
			r.comm.rank, r.src, r.tag, err))
	}
	r.complete(data)
	return r.n
}

// Test polls for completion without blocking, returning true once the
// operation has finished. Mirrors MPI_Test, including its role as the
// progress-engine prod used by the full communication pattern.
func (r *Request) Test() bool {
	if r.done {
		return true
	}
	data, ok, err := r.comm.t.TryRecv(r.src, r.tag)
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d: irecv from %d tag %d: %v",
			r.comm.rank, r.src, r.tag, err))
	}
	if !ok {
		return false
	}
	r.complete(data)
	return true
}

// complete finishes a receive with the delivered payload.
func (r *Request) complete(data []float32) {
	if len(data) > len(r.buf) {
		panic("mpi: Irecv message truncated")
	}
	copy(r.buf, data)
	r.n = len(data)
	r.done = true
}

// Done reports whether the request has already completed (without polling).
func (r *Request) Done() bool { return r.done }

// Testall polls every request once and reports whether all are complete.
func Testall(reqs []*Request) bool {
	all := true
	for _, r := range reqs {
		if r != nil && !r.Test() {
			all = false
		}
	}
	return all
}
