package mpi

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

// Irecv posts a nonblocking receive into buf and returns its request, which
// the caller stores, as MPI_Irecv fills a caller-owned MPI_Request: a caller
// that posts the same receive every step keeps the request in place and
// allocates none. Completion happens at Wait or a successful Test.
func (c *Comm) Irecv(src, tag int, buf []float32) Request {
	if src == ProcNull {
		return Request{comm: c, src: ProcNull, done: true}
	}
	c.checkRank(src)
	return Request{comm: c, src: src, tag: tag, buf: buf}
}

// Wait blocks until the request completes and returns the received element
// count.
func (r *Request) Wait() int {
	if r.done {
		return r.n
	}
	n, err := r.comm.t.Recv(r.src, r.tag, r.buf)
	if err != nil {
		panic(&opError{err})
	}
	r.n, r.done = n, true
	return n
}

// Test polls for completion without blocking, returning true once the
// operation has finished. Mirrors MPI_Test, including its role as the
// progress-engine prod used by the full communication pattern.
func (r *Request) Test() bool {
	if r.done {
		return true
	}
	n, ok, err := r.comm.t.TryRecv(r.src, r.tag, r.buf)
	if err != nil {
		panic(&opError{err})
	}
	if ok {
		r.n, r.done = n, true
	}
	return ok
}

// Done reports whether the request has already completed (without polling).
func (r *Request) Done() bool { return r.done }
