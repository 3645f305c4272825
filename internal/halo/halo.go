// Package halo implements the paper's three distributed-memory
// computation/communication patterns (Table I, Fig. 5):
//
//   - basic: synchronous multi-step face exchanges, 2 messages per
//     dimension (6 in 3-D);
//   - diagonal: synchronous single-step exchange over the full
//     {-1,0,1}^n neighbourhood (26 messages in 3-D);
//   - full: the diagonal message set sent before CORE is computed and
//     received after it, then REMAINDER updates.
//
// The patterns differ only in which neighbour gets which slab, in how
// many phases (messages) and in whether the caller computes between Start
// and Finish; one table-driven Exchanger runs them all. Full mode needs no
// MPI_Test prods between CORE tiles: both transports deliver without the
// receiver's help, so the receive happens in Finish. An Exchanger operates
// on one field over one Cartesian communicator; the compiler instantiates
// one per (field, time offset) requirement of an operator.
package halo

import (
	"fmt"
	"strings"

	"devigo/internal/field"
	"devigo/internal/mpi"
	"devigo/internal/obs"
)

// Mode selects the communication pattern.
type Mode int

const (
	// ModeNone disables exchanges (serial runs).
	ModeNone Mode = iota
	// ModeBasic is the blocking face-only multi-step pattern.
	ModeBasic
	// ModeDiagonal is the single-step 26-neighbour pattern.
	ModeDiagonal
	// ModeFull is the overlapped pattern (diagonal message set,
	// asynchronous, CORE/REMAINDER split).
	ModeFull
)

// String implements fmt.Stringer with the paper's names.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeBasic:
		return "basic"
	case ModeDiagonal:
		return "diag"
	case ModeFull:
		return "full"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ModeNames lists every accepted ParseMode spelling, canonical names
// first — the vocabulary quoted by ParseMode errors and CLI usage text.
func ModeNames() []string {
	return []string{"none", "basic", "diag", "full", "diagonal", "diag2", "overlap", "overlapped", "0", "1"}
}

// ParseMode converts the DEVITO_MPI-style names used by the CLI,
// accepting the Devito aliases ("diag", "diagonal", "diag2" for the
// diagonal pattern; "overlap"/"overlapped" for full). Unknown names fail
// with an error listing the valid spellings.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "none", "0":
		return ModeNone, nil
	case "basic", "1":
		return ModeBasic, nil
	case "diag", "diagonal", "diag2":
		return ModeDiagonal, nil
	case "full", "overlap", "overlapped":
		return ModeFull, nil
	}
	return ModeNone, fmt.Errorf("halo: unknown MPI mode %q (valid: %s)", s, strings.Join(ModeNames(), ", "))
}

// message is one slab a pattern ships: the topology offset of the
// neighbour it goes to, and the dimensions along which the slab spans the
// already-filled ghost band besides the owned extent (nil: none).
type message struct {
	offset      []int
	includeHalo []bool
}

// messages enumerates a mode's exchange as ordered phases, each complete
// before the next begins: the one place in the repository that says which
// neighbours a pattern talks to. Basic sweeps the dimensions, two faces
// per phase, later phases widened by the dimensions already swept so
// corner data propagates transitively (Fig. 5a: step A then step B);
// diagonal and full post the whole {-1,0,1}^n neighbourhood in one phase.
func messages(mode Mode, nd int) [][]message {
	switch mode {
	case ModeNone:
		return nil
	case ModeBasic:
		phases := make([][]message, nd)
		for d := range phases {
			swept := make([]bool, nd)
			for k := 0; k < d; k++ {
				swept[k] = true
			}
			for _, s := range []int{-1, 1} {
				offset := make([]int, nd)
				offset[d] = s
				phases[d] = append(phases[d], message{offset, swept})
			}
		}
		return phases
	case ModeDiagonal, ModeFull:
		var phase []message
		for _, o := range mpi.NeighborOffsets(nd) {
			phase = append(phase, message{offset: o})
		}
		return [][]message{phase}
	}
	panic("halo: invalid mode")
}

// row is one message of an exchanger's table, bound to this rank: the
// neighbour, the tags (which encode the sender's direction of travel, so
// the message from Neighbor(o) carries the tag of -o), the owned slab
// packed into sendBuf and the ghost slab unpacked from recvBuf, which
// Finish receives into.
type row struct {
	nbr              int
	sendTag, recvTag int
	sendReg, recvReg field.Region
	sendBuf, recvBuf []float32
}

// Exchanger fills one field's halo from its neighbours by walking a
// message table built once: a mode is nothing but the table's
// constructor. Exchange is the synchronous entry point; Start and Finish
// split it around the last phase so the caller can compute while that
// phase's messages are in flight (the full pattern's CORE overlap —
// available, if not used, under every mode).
//
// Buffers are preallocated for every mode, so an exchange allocates
// nothing. Table I lists basic's buffers as allocated at call time; that
// column describes Devito's implementation, not the pattern, and
// perfmodel still prices it for the paper's clusters.
type Exchanger struct {
	cart   *mpi.CartComm
	f      *field.Function
	rank   int
	stream int
	phases [][]row
	// inflight is the phase whose slabs are sent and not yet received
	// (nil between exchanges).
	inflight []row
}

// New constructs the exchanger for the given mode, exchanging the field's
// full allocated ghost width. stream must be unique per (field, operator)
// so concurrent exchanges cannot cross-match.
func New(mode Mode, cart *mpi.CartComm, f *field.Function, stream int) *Exchanger {
	return NewDepth(mode, cart, f, stream, nil)
}

// NewDepth constructs an exchanger shipping a ghost band depth[d] points
// wide per side instead of the full allocated width — the deep-halo
// exchanger of communication-avoiding time tiling (and, symmetrically, a
// thinner-than-allocation exchange when only part of a deep halo needs
// refreshing). nil depth means the full allocated width. depth must not
// exceed the field's allocated halo, and a one-hop exchange additionally
// requires depth not to exceed the smallest neighbouring chunk — both are
// the caller's (the compiler's) responsibility when it picks the exchange
// interval. The regions are fixed here: a field whose ghost storage grows
// afterwards needs a new exchanger.
func NewDepth(mode Mode, cart *mpi.CartComm, f *field.Function, stream int, depth []int) *Exchanger {
	x := &Exchanger{cart: cart, f: f, stream: stream}
	if mode == ModeNone {
		return x
	}
	x.rank = cart.Rank()
	for _, phase := range messages(mode, f.NDims()) {
		var rows []row
		for _, m := range phase {
			nbr := cart.Neighbor(m.offset)
			if nbr == mpi.ProcNull {
				continue
			}
			r := row{
				nbr:     nbr,
				sendTag: mpi.OffsetTag(stream, m.offset),
				recvTag: mpi.OffsetTag(stream, negate(m.offset)),
				sendReg: f.SendRegionDepth(m.offset, m.includeHalo, depth),
				recvReg: f.RecvRegionDepth(m.offset, m.includeHalo, depth),
			}
			r.sendBuf = make([]float32, r.sendReg.Size())
			r.recvBuf = make([]float32, r.recvReg.Size())
			rows = append(rows, r)
		}
		x.phases = append(x.phases, rows)
	}
	return x
}

// Traffic is what one Exchange posts from this rank: a message per table
// row and the float32 payload of its send region. A rank on a
// non-periodic boundary has fewer rows, so less of both, than Traffic's
// interior figure.
func (x *Exchanger) Traffic() (msgs int, bytes float64) {
	for _, rows := range x.phases {
		msgs += len(rows)
		for i := range rows {
			bytes += 4 * float64(len(rows[i].sendBuf))
		}
	}
	return msgs, bytes
}

// post starts one phase on time buffer t: every slab is packed and sent.
// The transport snapshots a payload at post time, so the blocking Send is
// also the asynchronous pattern's Isend: the buffer is reusable at once
// and only the receives are left, for Finish.
func (x *Exchanger) post(t int, rows []row) {
	buf := x.f.Buf(t)
	tid := x.stream + 1
	x.inflight = rows
	for i := range rows {
		r := &rows[i]
		sp := obs.BeginStream(x.rank, tid, obs.PhasePack, t)
		buf.Pack(r.sendReg, r.sendBuf)
		sp.End()
		sp = obs.BeginStream(x.rank, tid, obs.PhaseSend, t)
		x.cart.Send(r.nbr, r.sendTag, r.sendBuf)
		sp.End()
		obs.CountMsg(x.rank, 4*int64(len(r.sendBuf)))
	}
}

// Finish receives the phase in flight, blocking until each message has
// arrived, and unpacks it into the halo of time buffer t (nothing when no
// phase is in flight).
func (x *Exchanger) Finish(t int) {
	buf := x.f.Buf(t)
	tid := x.stream + 1
	for i := range x.inflight {
		r := &x.inflight[i]
		sp := obs.BeginStream(x.rank, tid, obs.PhaseWait, t)
		x.cart.Recv(r.nbr, r.recvTag, r.recvBuf)
		sp.End()
		sp = obs.BeginStream(x.rank, tid, obs.PhaseUnpack, t)
		buf.Unpack(r.recvReg, r.recvBuf)
		sp.End()
	}
	x.inflight = nil
}

// Start runs every phase of the exchange of time buffer t but the last
// to completion and posts the last.
func (x *Exchanger) Start(t int) {
	for i, rows := range x.phases {
		x.post(t, rows)
		if i < len(x.phases)-1 {
			x.Finish(t)
		}
	}
}

// Exchange synchronously updates the halo of time buffer t.
func (x *Exchanger) Exchange(t int) {
	x.Start(t)
	x.Finish(t)
}

func negate(o []int) []int {
	n := make([]int, len(o))
	for i, v := range o {
		n[i] = -v
	}
	return n
}
