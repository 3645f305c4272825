package halo

import (
	"devigo/internal/field"
	"devigo/internal/mpi"
)

// fullExchanger implements the paper's full (overlap) pattern: the same
// 26-message single-step set as diagonal, but asynchronous. Start posts all
// receives and sends; the caller computes the CORE region while messages
// are in flight, prodding the progress engine via Progress (the MPI_Test
// calls the generated code inserts between loop-tiling blocks); Finish
// waits for the remaining receives, unpacks the halos, after which the
// caller computes the REMAINDER areas. The two halves are the diagonal
// exchanger's own (whose Exchange, inherited here, runs them back to
// back); this type only holds the requests in between.
type fullExchanger struct {
	*diagonalExchanger
	// pending holds the receives of the exchange in flight (nil between
	// exchanges).
	pending []*mpi.Request
}

func newFull(cart *mpi.CartComm, f *field.Function, stream int, depth []int) *fullExchanger {
	return &fullExchanger{diagonalExchanger: newDiagonal(cart, f, stream, depth)}
}

func (e *fullExchanger) Mode() Mode { return ModeFull }

func (e *fullExchanger) Start(t int) { e.pending = e.start(t) }

func (e *fullExchanger) Progress() bool { return mpi.Testall(e.pending) }

func (e *fullExchanger) Finish(t int) {
	e.finish(t, e.pending)
	e.pending = nil
}
