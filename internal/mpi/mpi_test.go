package mpi

import (
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

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
			c.Barrier()
		} else {
			c.Barrier() // ensure sender has scribbled
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

func TestIsendIrecvWait(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, []float32{3.5})
		} else {
			buf := make([]float32, 1)
			req := c.Irecv(0, 9, buf)
			n := req.Wait()
			if n != 1 || buf[0] != 3.5 {
				t.Errorf("irecv got n=%d buf=%v", n, buf)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTestPolling(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier() // let rank 1 poll while nothing is in flight
			c.Send(1, 4, []float32{1})
		} else {
			buf := make([]float32, 1)
			req := c.Irecv(0, 4, buf)
			if req.Test() {
				t.Error("Test should not complete before the send")
			}
			c.Barrier()
			for !req.Test() {
			}
			if buf[0] != 1 {
				t.Errorf("buf = %v", buf)
			}
			if !req.Done() {
				t.Error("Done should be true after successful Test")
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
		req := c.Irecv(ProcNull, 0, buf)
		if !req.Test() {
			t.Error("ProcNull Irecv must be complete")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	w := NewWorld(4)
	var phase1 atomic.Int32
	err := w.Run(func(c *Comm) {
		phase1.Add(1)
		c.Barrier()
		if got := phase1.Load(); got != 4 {
			t.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), got)
		}
		c.Barrier()
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
	// Ring exchange with SendRecv must not deadlock.
	w := NewWorld(4)
	err := w.Run(func(c *Comm) {
		right := (c.Rank() + 1) % 4
		left := (c.Rank() + 3) % 4
		buf := make([]float32, 1)
		c.SendRecv(right, 0, []float32{float32(c.Rank())}, left, 0, buf)
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
