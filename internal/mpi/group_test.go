package mpi

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func TestSplitEvenOdd(t *testing.T) {
	p := 8
	sizes := make([]int, p)
	ranks := make([]int, p)
	sums := make([]float32, p)
	err := Run(machine.T3D(), p, 1, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		sizes[c.Rank()] = sub.Size()
		ranks[c.Rank()] = sub.Rank()
		// Allreduce within the sub-communicator only.
		v := EncodeFloats([]float32{float32(c.Rank())})
		sums[c.Rank()] = DecodeFloats(sub.Allreduce(v, Sum, Float))[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if sizes[r] != 4 {
			t.Fatalf("rank %d: subcomm size %d, want 4", r, sizes[r])
		}
		if ranks[r] != r/2 {
			t.Fatalf("rank %d: subcomm rank %d, want %d", r, ranks[r], r/2)
		}
		want := float32(0 + 2 + 4 + 6)
		if r%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if sums[r] != want {
			t.Fatalf("rank %d: subgroup sum %v, want %v", r, sums[r], want)
		}
	}
}

func TestSplitByKeyReordersRanks(t *testing.T) {
	p := 4
	newRank := make([]int, p)
	err := Run(machine.SP2(), p, 1, func(c *Comm) {
		// Reverse order: key = -rank.
		sub := c.Split(0, -c.Rank())
		newRank[c.Rank()] = sub.Rank()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if newRank[r] != p-1-r {
			t.Fatalf("world rank %d got sub rank %d, want %d", r, newRank[r], p-1-r)
		}
	}
}

func TestSplitUndefinedColorReturnsNil(t *testing.T) {
	err := Run(machine.T3D(), 4, 1, func(c *Comm) {
		var sub *Comm
		if c.Rank() < 2 {
			sub = c.Split(0, 0)
		} else {
			sub = c.Split(-1, 0)
		}
		if c.Rank() < 2 && (sub == nil || sub.Size() != 2) {
			t.Errorf("rank %d: expected 2-member subcomm", c.Rank())
		}
		if c.Rank() >= 2 && sub != nil {
			t.Errorf("rank %d: undefined color should return nil", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubcommTrafficIsolated(t *testing.T) {
	// Two sub-communicators run the same collective concurrently with
	// identical tags; context IDs must keep their traffic apart.
	p := 8
	results := make([][]float32, p)
	err := Run(machine.Paragon(), p, 1, func(c *Comm) {
		sub := c.Split(c.Rank()/4, c.Rank()) // two groups of 4
		v := EncodeFloats([]float32{float32(100*(c.Rank()/4) + 1)})
		results[c.Rank()] = DecodeFloats(sub.Allreduce(v, Sum, Float))
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		want := float32(4)
		if r >= 4 {
			want = 404
		}
		if results[r][0] != want {
			t.Fatalf("rank %d: sum %v, want %v", r, results[r][0], want)
		}
	}
}

func TestSubcommBcastAndBarrierOnT3D(t *testing.T) {
	// The hardware barrier is partition-wide: a subcomm barrier must use
	// the software path and still synchronize only the subgroup.
	p := 8
	err := Run(machine.T3D(), p, 1, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		var msg []byte
		if sub.Rank() == 0 {
			msg = []byte{byte(c.Rank() % 2)}
		}
		got := sub.Bcast(0, msg)
		if got[0] != byte(c.Rank()%2) {
			t.Errorf("rank %d: cross-group bcast leak: %v", c.Rank(), got)
		}
		sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplit(t *testing.T) {
	p := 8
	err := Run(machine.SP2(), p, 1, func(c *Comm) {
		half := c.Split(c.Rank()/4, c.Rank()) // 2 groups of 4
		quad := half.Split(half.Rank()/2, 0)  // 4 groups of 2
		if quad.Size() != 2 {
			t.Errorf("nested split size %d", quad.Size())
		}
		sum := DecodeFloats(quad.Allreduce(EncodeFloats([]float32{1}), Sum, Float))
		if sum[0] != 2 {
			t.Errorf("nested allreduce sum %v", sum[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTranslate(t *testing.T) {
	err := Run(machine.T3D(), 6, 1, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.Translate(sub.Rank(), c) != c.Rank() {
			t.Errorf("translate to world failed at %d", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvOverlap(t *testing.T) {
	// Nonblocking ring shift: everyone posts Irecv, Isends, then waits —
	// would deadlock with blocking receives posted first.
	p := 8
	err := Run(machine.T3D(), p, 1, func(c *Comm) {
		next := (c.Rank() + 1) % p
		prev := (c.Rank() - 1 + p) % p
		r := c.Irecv(prev, 5)
		s := c.Isend(next, 5, []byte{byte(c.Rank())})
		got := r.Wait()
		s.Wait()
		if got[0] != byte(prev) {
			t.Errorf("rank %d received %d, want %d", c.Rank(), got[0], prev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendDoesNotBlockOnLargeMessages(t *testing.T) {
	var posted sim.Duration
	err := Run(machine.SP2(), 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			start := c.Proc().Now()
			req := c.Isend(1, 0, make([]byte, 1<<20))
			posted = c.Proc().Now().Sub(start)
			req.Wait()
		} else {
			c.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if posted > 2*machine.SP2().Costs(machine.OpP2P).Send {
		t.Fatalf("Isend of 1 MB took %v at post time, want ≈ send overhead", posted)
	}
}

func TestIsendWaitBlocksUntilInjected(t *testing.T) {
	err := Run(machine.SP2(), 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Isend(1, 0, make([]byte, 65536))
			req.Wait()
			minSer := sim.PerByte(65536, 13.3)
			if c.Proc().Now() < sim.Time(minSer) {
				t.Errorf("Wait returned at %v, before injection could finish", c.Proc().Now())
			}
		} else {
			c.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRequestTest(t *testing.T) {
	err := Run(machine.T3D(), 2, 1, func(c *Comm) {
		if c.Rank() == 1 {
			r := c.Irecv(0, 3)
			if r.Test() {
				t.Error("request complete before any send")
			}
			c.Proc().Sleep(10 * sim.Millisecond)
			if !r.Test() {
				t.Error("request incomplete after message arrival")
			}
			if got := r.Wait(); got[0] != 42 {
				t.Errorf("payload %v", got)
			}
		} else {
			c.Send(1, 3, []byte{42})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitallGathersPayloads(t *testing.T) {
	p := 4
	err := Run(machine.Paragon(), p, 1, func(c *Comm) {
		if c.Rank() == 0 {
			reqs := make([]*Request, 0, p-1)
			for r := 1; r < p; r++ {
				reqs = append(reqs, c.Irecv(r, 9))
			}
			all := c.Waitall(reqs...)
			for i, b := range all {
				if b[0] != byte(i+1) {
					t.Errorf("payload %d = %v", i, b)
				}
			}
		} else {
			c.Send(0, 9, []byte{byte(c.Rank())})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGathervScattervAlltoallvOnSim(t *testing.T) {
	p := 6
	err := Run(machine.T3D(), p, 1, func(c *Comm) {
		r := c.Rank()
		// Gatherv: rank r sends r bytes.
		out := c.Gatherv(0, make([]byte, r))
		if r == 0 {
			for i, b := range out {
				if len(b) != i {
					t.Errorf("gatherv block %d has %d bytes", i, len(b))
				}
			}
		}
		// Scatterv: rank r gets 2r bytes.
		var blocks [][]byte
		if r == 0 {
			blocks = make([][]byte, p)
			for i := range blocks {
				blocks[i] = bytes.Repeat([]byte{byte(i)}, 2*i)
			}
		}
		mine := c.Scatterv(0, blocks)
		if len(mine) != 2*r {
			t.Errorf("scatterv: rank %d got %d bytes", r, len(mine))
		}
		// Alltoallv: sizes src+dst.
		vblocks := make([][]byte, p)
		for d := range vblocks {
			vblocks[d] = bytes.Repeat([]byte{byte(r)}, r+d)
		}
		in := c.Alltoallv(vblocks)
		for s, b := range in {
			if len(b) != s+r || (len(b) > 0 && b[0] != byte(s)) {
				t.Errorf("alltoallv: block from %d wrong (%d bytes)", s, len(b))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterOnSim(t *testing.T) {
	p := 8
	err := Run(machine.SP2(), p, 1, func(c *Comm) {
		blocks := make([][]byte, p)
		for i := range blocks {
			blocks[i] = EncodeFloats([]float32{float32(c.Rank() + i)})
		}
		got := DecodeFloats(c.ReduceScatter(blocks, Sum, Float))
		want := float32(p*(p-1)/2 + p*c.Rank())
		if got[0] != want {
			t.Errorf("rank %d: %v, want %v", c.Rank(), got[0], want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
