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
// receiver's help, so the receive happens in Finish. An Exchanger fills
// every (field, time offset) part of one exchange point over one Cartesian
// communicator with one message per neighbour per phase; the compiler
// instantiates one per exchange point of an operator.
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

// Part is one (field, time offset) an exchange fills: Start(t), Finish(t)
// and Exchange(t) address the field's time buffer t+TimeOff, shipping a
// ghost band Depth[d] points wide per side (nil: the full allocated width).
type Part struct {
	F       *field.Function
	TimeOff int
	Depth   []int
}

// row is one message of an exchanger's table, bound to this rank: the
// neighbour, the tags (which encode the sender's direction of travel, so
// the message from Neighbor(o) carries the tag of -o), each part's owned
// slab, packed in part order into sendBuf, and each part's ghost slab,
// unpacked from recvBuf, which Finish receives into.
type row struct {
	nbr              int
	sendTag, recvTag int
	sendReg, recvReg []field.Region
	sendBuf, recvBuf []float32
}

// Exchanger fills the halos of an exchange point's parts from their
// neighbours by walking a message table built once: a mode is nothing but
// the table's constructor, and a neighbour gets one message per phase
// whatever the number of parts. Exchange is the synchronous entry point;
// Start and Finish split it around the last phase so the caller can
// compute while that phase's messages are in flight (the full pattern's
// CORE overlap — available, if not used, under every mode).
//
// Buffers are preallocated for every mode, so an exchange allocates
// nothing. Table I lists basic's buffers as allocated at call time; that
// column describes Devito's implementation, not the pattern, and
// perfmodel still prices it for the paper's clusters.
type Exchanger struct {
	cart   *mpi.CartComm
	parts  []Part
	rank   int
	tid    int // the stream's obs trace track: stream + 1
	phases [][]row
	// inflight is the phase whose slabs are sent and not yet received
	// (nil between exchanges).
	inflight []row
}

// NewDepth constructs the exchanger of one field's time buffer, shipping a
// ghost band depth[d] points wide per side: NewParts with one part.
func NewDepth(mode Mode, cart *mpi.CartComm, f *field.Function, stream int, depth []int) *Exchanger {
	return NewParts(mode, cart, stream, []Part{{F: f, Depth: depth}})
}

// NewParts constructs the exchanger of one exchange point. A part's depth
// may be thinner than its field's allocated halo (the deep-halo exchange
// of communication-avoiding time tiling, or a partial refresh) but must
// not exceed it, and a one-hop exchange additionally requires it not to
// exceed the smallest neighbouring chunk — both are the caller's (the
// compiler's) responsibility when it picks the exchange interval. stream
// must be unique per exchange point of a world so concurrent exchanges
// cannot cross-match. The regions are fixed here: a field whose ghost
// storage grows afterwards needs a new exchanger.
func NewParts(mode Mode, cart *mpi.CartComm, stream int, parts []Part) *Exchanger {
	x := &Exchanger{cart: cart, parts: parts, tid: stream + 1}
	if mode == ModeNone {
		return x
	}
	x.rank = cart.Rank()
	for _, phase := range messages(mode, parts[0].F.NDims()) {
		var rows []row
		for _, m := range phase {
			nbr := cart.Neighbor(m.offset)
			if nbr == mpi.ProcNull {
				continue
			}
			r := row{nbr: nbr, sendTag: mpi.OffsetTag(stream, m.offset), recvTag: mpi.OffsetTag(stream, negate(m.offset))}
			sends, recvs := 0, 0
			for _, p := range parts {
				s, v := p.F.SendRegionDepth(m.offset, m.includeHalo, p.Depth), p.F.RecvRegionDepth(m.offset, m.includeHalo, p.Depth)
				r.sendReg, r.recvReg = append(r.sendReg, s), append(r.recvReg, v)
				sends, recvs = sends+s.Size(), recvs+v.Size()
			}
			r.sendBuf, r.recvBuf = make([]float32, sends), make([]float32, recvs)
			rows = append(rows, r)
		}
		x.phases = append(x.phases, rows)
	}
	return x
}

// Traffic is what one Exchange posts from this rank: a message per table
// row and the float32 payload of its parts' send regions. A rank on a
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

// post starts one phase of the exchange at time t: every row's slabs are
// packed into its one buffer and sent. The transport snapshots a payload
// at post time, so the blocking Send is also the asynchronous pattern's
// Isend: the buffer is reusable at once and only the receives are left,
// for Finish.
func (x *Exchanger) post(t int, rows []row) {
	x.inflight = rows
	for i := range rows {
		r := &rows[i]
		sp := obs.BeginStream(x.rank, x.tid, obs.PhasePack, t)
		n := 0
		for j, p := range x.parts {
			n += p.F.Buf(t+p.TimeOff).Pack(r.sendReg[j], r.sendBuf[n:])
		}
		sp.End()
		sp = obs.BeginStream(x.rank, x.tid, obs.PhaseSend, t)
		x.cart.Send(r.nbr, r.sendTag, r.sendBuf)
		sp.End()
		obs.CountMsg(x.rank, 4*int64(len(r.sendBuf)))
	}
}

// Finish receives the phase in flight, blocking until each message has
// arrived, and unpacks it into the parts' halos at time t (nothing when no
// phase is in flight).
func (x *Exchanger) Finish(t int) {
	for i := range x.inflight {
		r := &x.inflight[i]
		sp := obs.BeginStream(x.rank, x.tid, obs.PhaseWait, t)
		x.cart.Recv(r.nbr, r.recvTag, r.recvBuf)
		sp.End()
		sp = obs.BeginStream(x.rank, x.tid, obs.PhaseUnpack, t)
		n := 0
		for j, p := range x.parts {
			n += p.F.Buf(t+p.TimeOff).Unpack(r.recvReg[j], r.recvBuf[n:])
		}
		sp.End()
	}
	x.inflight = nil
}

// Start runs every phase of the exchange at time t but the last to
// completion and posts the last.
func (x *Exchanger) Start(t int) {
	for i, rows := range x.phases {
		x.post(t, rows)
		if i < len(x.phases)-1 {
			x.Finish(t)
		}
	}
}

// Exchange synchronously updates the parts' halos at time t.
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
