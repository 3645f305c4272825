package mpi

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// barrier holds every rank until all have entered it, for tests that
// sequence ranks: an allreduce returns on no rank before rank 0 holds
// every contribution.
func barrier(c *Comm) { c.AllreduceScalar(0, OpSum) }

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	var got []float32
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float32{1, 2, 3})
		} else {
			buf := make([]float32, 3)
			n := c.Recv(0, 7, buf)
			if n != 3 {
				t.Errorf("recv n = %d", n)
			}
			got = buf
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float32{1, 2, 3}) {
		t.Errorf("got %v", got)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	// Sender may reuse its buffer immediately after Send returns.
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float32{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the in-flight message
			barrier(c)
		} else {
			barrier(c) // ensure sender has scribbled
			got := make([]float32, 1)
			c.Recv(0, 0, got)
			if got[0] != 42 {
				t.Errorf("message corrupted: %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	// Messages with distinct tags are matched regardless of arrival order.
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float32{1})
			c.Send(1, 2, []float32{2})
			c.Send(1, 3, []float32{3})
		} else {
			buf := make([]float32, 1)
			c.Recv(0, 3, buf)
			if buf[0] != 3 {
				t.Errorf("tag 3 got %v", buf[0])
			}
			c.Recv(0, 1, buf)
			if buf[0] != 1 {
				t.Errorf("tag 1 got %v", buf[0])
			}
			c.Recv(0, 2, buf)
			if buf[0] != 2 {
				t.Errorf("tag 2 got %v", buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSameTagFIFO(t *testing.T) {
	// Same (src, tag) pairs must arrive in send order.
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 5, []float32{float32(i)})
			}
		} else {
			buf := make([]float32, 1)
			for i := 0; i < 10; i++ {
				c.Recv(0, 5, buf)
				if buf[0] != float32(i) {
					t.Errorf("out of order: got %v want %d", buf[0], i)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProcNullNoOps(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) {
		c.Send(ProcNull, 0, []float32{1})
		buf := []float32{99}
		if n := c.Recv(ProcNull, 0, buf); n != 0 {
			t.Errorf("ProcNull recv n = %d", n)
		}
		if buf[0] != 99 {
			t.Error("ProcNull recv must not touch the buffer")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	w := NewWorld(5)
	err := w.Run(func(c *Comm) {
		got := c.AllreduceScalar(float64(c.Rank()+1), OpSum)
		if got != 15 {
			t.Errorf("rank %d: allreduce sum = %v, want 15", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxMinVector(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		r := float64(c.Rank())
		mx := c.Allreduce([]float64{r, -r}, OpMax)
		if mx[0] != 2 || mx[1] != 0 {
			t.Errorf("max = %v", mx)
		}
		mn := c.Allreduce([]float64{r, -r}, OpMin)
		if mn[0] != 0 || mn[1] != -2 {
			t.Errorf("min = %v", mn)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreducePreservesFloat64Precision(t *testing.T) {
	// The float32 substrate must not round float64 payloads.
	w := NewWorld(2)
	v := 1.0 + 1e-15
	err := w.Run(func(c *Comm) {
		got := c.AllreduceScalar(v, OpMax)
		if got != v {
			t.Errorf("precision lost: %v != %v", got, v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceTableMatchesPerRow(t *testing.T) {
	// A run samples its receivers into one NT×nrec table and reduces it
	// once: that must give the bits of reducing each step's row on its
	// own, as a per-step reduction did, on every world size.
	const nt, nrec = 7, 5
	sample := func(rank, step, rec int) float64 {
		return math.Sin(float64(rank*nt*nrec+step*nrec+rec)) * math.Pow(10, float64(rank-step))
	}
	for n := 2; n <= 8; n++ {
		err := RunRanks(n, func(c *Comm) error {
			table := make([]float64, nt*nrec)
			for step := 0; step < nt; step++ {
				for rec := 0; rec < nrec; rec++ {
					table[step*nrec+rec] = sample(c.Rank(), step, rec)
				}
			}
			whole := c.Allreduce(table, OpSum)
			for step := 0; step < nt; step++ {
				row := c.Allreduce(table[step*nrec:(step+1)*nrec], OpSum)
				for rec, v := range row {
					if got := whole[step*nrec+rec]; math.Float64bits(got) != math.Float64bits(v) {
						return fmt.Errorf("step %d receiver %d: table %v, row %v", step, rec, got, v)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("%d ranks: %v", n, err)
		}
	}
}

func TestBcast(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		buf := make([]float32, 3)
		if c.Rank() == 2 {
			copy(buf, []float32{7, 8, 9})
		}
		c.Bcast(2, buf)
		if !reflect.DeepEqual(buf, []float32{7, 8, 9}) {
			t.Errorf("rank %d: bcast got %v", c.Rank(), buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		local := []float32{float32(c.Rank() * 10)}
		var parts [][]float32
		if c.Rank() == 0 {
			parts = [][]float32{make([]float32, 1), make([]float32, 1), make([]float32, 1)}
		}
		c.Gather(0, local, parts)
		if c.Rank() == 0 {
			for r := 0; r < 3; r++ {
				if parts[r][0] != float32(r*10) {
					t.Errorf("gather part %d = %v", r, parts[r])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		var parts [][]float32
		if c.Rank() == 1 {
			parts = [][]float32{{0}, {10, 11}, {20, 21, 22}}
		}
		local := make([]float32, c.Rank()+1)
		c.Scatter(1, parts, local)
		for i, v := range local {
			if v != float32(c.Rank()*10+i) {
				t.Errorf("rank %d: scattered part %v", c.Rank(), local)
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestStatsAccounting(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float32, 10))
			c.Send(1, 1, make([]float32, 5))
		} else {
			buf := make([]float32, 10)
			c.Recv(0, 0, buf)
			c.Recv(0, 1, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.StatsSnapshot()
	if st[0].MsgsSent != 2 || st[0].BytesSent != 60 {
		t.Errorf("rank0 stats = %+v, want 2 msgs / 60 bytes", st[0])
	}
	if st[1].MsgsSent != 0 {
		t.Errorf("rank1 sent %d msgs, want 0", st[1].MsgsSent)
	}
}

func TestCartCreateAndShift(t *testing.T) {
	w := NewWorld(6)
	err := w.Run(func(c *Comm) {
		cc, err := CartCreate(c, []int{3, 2}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		coords := cc.Coords()
		// Row-major: rank = x*2 + y.
		if got := coords[0]*2 + coords[1]; got != c.Rank() {
			t.Errorf("rank %d coords %v inconsistent", c.Rank(), coords)
		}
		src, dst := cc.Neighbor([]int{-1, 0}), cc.Neighbor([]int{1, 0})
		wantDst := ProcNull
		if coords[0]+1 < 3 {
			wantDst = (coords[0]+1)*2 + coords[1]
		}
		wantSrc := ProcNull
		if coords[0]-1 >= 0 {
			wantSrc = (coords[0]-1)*2 + coords[1]
		}
		if src != wantSrc || dst != wantDst {
			t.Errorf("rank %d neighbours along dim 0 = (%d,%d), want (%d,%d)", c.Rank(), src, dst, wantSrc, wantDst)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartPeriodicWraps(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		cc, err := CartCreate(c, []int{4}, []bool{true})
		if err != nil {
			t.Error(err)
			return
		}
		src, dst := cc.Neighbor([]int{-1}), cc.Neighbor([]int{1})
		if dst != (c.Rank()+1)%4 || src != (c.Rank()+3)%4 {
			t.Errorf("rank %d periodic neighbours = (%d,%d)", c.Rank(), src, dst)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborOffsetsCounts(t *testing.T) {
	// Paper Table I: 26 full-neighbourhood messages in 3-D.
	if got := len(NeighborOffsets(3)); got != 26 {
		t.Errorf("3-D neighbourhood = %d, want 26", got)
	}
	if got := len(NeighborOffsets(2)); got != 8 {
		t.Errorf("2-D neighbourhood = %d, want 8", got)
	}
}

func TestOffsetTagSymmetry(t *testing.T) {
	// Property: tags are unique per offset within a stream, and the
	// negated offset has a distinct tag (so opposite directions do not
	// collide on the same channel).
	offsets := NeighborOffsets(3)
	seen := map[int][]int{}
	for _, o := range offsets {
		tag := OffsetTag(3, o)
		if prev, ok := seen[tag]; ok {
			t.Fatalf("tag collision between %v and %v", prev, o)
		}
		seen[tag] = o
	}
}

func TestCartNeighborExchangeAllPairs(t *testing.T) {
	// Every rank sends its rank id to each neighbour; each receipt must
	// identify the correct peer.
	w := NewWorld(8)
	err := w.Run(func(c *Comm) {
		cc, err := CartCreate(c, []int{2, 2, 2}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		offsets := NeighborOffsets(3)
		for _, o := range offsets {
			nb := cc.Neighbor(o)
			if nb == ProcNull {
				continue
			}
			c.Send(nb, OffsetTag(0, o), []float32{float32(c.Rank())})
		}
		for _, o := range offsets {
			nb := cc.Neighbor(o)
			if nb == ProcNull {
				continue
			}
			neg := make([]int, len(o))
			for i := range o {
				neg[i] = -o[i]
			}
			buf := make([]float32, 1)
			c.Recv(nb, OffsetTag(0, neg), buf)
			if int(buf[0]) != nb {
				t.Errorf("rank %d offset %v: got id %v, want %d", c.Rank(), o, buf[0], nb)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvCombined(t *testing.T) {
	// A ring exchange, each rank sending before it receives, must not
	// deadlock: the send is buffered.
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		right := (c.Rank() + 1) % 4
		left := (c.Rank() + 3) % 4
		buf := make([]float32, 1)
		c.Send(right, 0, []float32{float32(c.Rank())})
		c.Recv(left, 0, buf)
		if int(buf[0]) != left {
			t.Errorf("rank %d received %v, want %d", c.Rank(), buf[0], left)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborOffsetsProperty(t *testing.T) {
	// Property: offsets are unique, nonzero, and closed under negation.
	f := func(ndRaw uint8) bool {
		nd := int(ndRaw)%3 + 1
		offsets := NeighborOffsets(nd)
		seen := map[string]bool{}
		for _, o := range offsets {
			key := ""
			zero := true
			for _, v := range o {
				key += string(rune('a' + v + 1))
				if v != 0 {
					zero = false
				}
			}
			if zero || seen[key] {
				return false
			}
			seen[key] = true
		}
		for _, o := range offsets {
			key := ""
			for _, v := range o {
				key += string(rune('a' - v + 1))
			}
			if !seen[key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
