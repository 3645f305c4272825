package halo

import (
	"devigo/internal/field"
	"devigo/internal/mpi"
	"devigo/internal/obs"
)

// diagonalExchanger implements the paper's diagonal pattern: one
// single-step exchange over the complete {-1,0,1}^n neighbourhood — 26
// messages in 3-D — with smaller, DOMAIN-extent slabs and buffers
// preallocated once at construction ("pre-alloc (Python)" in Table I).
type diagonalExchanger struct {
	cart   *mpi.CartComm
	f      *field.Function
	rank   int
	stream int

	offsets [][]int
	nbrs    []int
	sendReg []field.Region
	recvReg []field.Region
	sendBuf [][]float32
	recvBuf [][]float32
}

func newDiagonal(cart *mpi.CartComm, f *field.Function, stream int, depth []int) *diagonalExchanger {
	d := &diagonalExchanger{cart: cart, f: f, rank: cart.Rank(), stream: stream}
	d.offsets = mpi.NeighborOffsets(f.NDims())
	d.nbrs = make([]int, len(d.offsets))
	d.sendReg = make([]field.Region, len(d.offsets))
	d.recvReg = make([]field.Region, len(d.offsets))
	d.sendBuf = make([][]float32, len(d.offsets))
	d.recvBuf = make([][]float32, len(d.offsets))
	for i, o := range d.offsets {
		d.nbrs[i] = cart.Neighbor(o)
		if d.nbrs[i] == mpi.ProcNull {
			continue
		}
		d.sendReg[i] = f.SendRegionDepth(o, nil, depth)
		d.recvReg[i] = f.RecvRegionDepth(o, nil, depth)
		d.sendBuf[i] = make([]float32, d.sendReg[i].Size())
		d.recvBuf[i] = make([]float32, d.recvReg[i].Size())
	}
	return d
}

func (d *diagonalExchanger) Mode() Mode { return ModeDiagonal }

// start posts every receive, then packs and sends every slab of time
// buffer t — the first half of the single-step exchange. The returned
// receive requests (nil at absent neighbours) are completed by finish.
func (d *diagonalExchanger) start(t int) []*mpi.Request {
	buf := d.f.Buf(t)
	tid := d.stream + 1
	reqs := make([]*mpi.Request, len(d.offsets))
	for i, o := range d.offsets {
		if d.nbrs[i] == mpi.ProcNull {
			continue
		}
		reqs[i] = d.cart.Irecv(d.nbrs[i], mpi.OffsetTag(d.stream, negate(o)), d.recvBuf[i])
	}
	for i, o := range d.offsets {
		if d.nbrs[i] == mpi.ProcNull {
			continue
		}
		sp := obs.BeginStream(d.rank, tid, obs.PhasePack, t)
		buf.Pack(d.sendReg[i], d.sendBuf[i])
		sp.End()
		sp = obs.BeginStream(d.rank, tid, obs.PhaseSend, t)
		// The transport snapshots the payload at post time, so a blocking
		// Send is also the full pattern's Isend: the buffer is reusable at
		// once and nothing is left to wait for on the send side.
		d.cart.Send(d.nbrs[i], mpi.OffsetTag(d.stream, o), d.sendBuf[i])
		sp.End()
		obs.CountMsg(d.rank, 4*int64(len(d.sendBuf[i])))
	}
	return reqs
}

// finish waits for the receives start posted and unpacks them into the
// halo of time buffer t.
func (d *diagonalExchanger) finish(t int, reqs []*mpi.Request) {
	buf := d.f.Buf(t)
	tid := d.stream + 1
	for i, r := range reqs {
		if r == nil {
			continue
		}
		sp := obs.BeginStream(d.rank, tid, obs.PhaseWait, t)
		r.Wait()
		sp.End()
		sp = obs.BeginStream(d.rank, tid, obs.PhaseUnpack, t)
		buf.Unpack(d.recvReg[i], d.recvBuf[i])
		sp.End()
	}
}

func (d *diagonalExchanger) Exchange(t int) { d.finish(t, d.start(t)) }
func (d *diagonalExchanger) Start(t int)    { d.Exchange(t) }
func (d *diagonalExchanger) Progress() bool { return true }
func (d *diagonalExchanger) Finish(t int)   {}
