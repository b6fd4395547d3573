package mpi

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/coll"
	"repro/internal/machine"
	"repro/internal/sim"
)

func TestP2PSendRecv(t *testing.T) {
	var got []byte
	err := Run(machine.T3D(), 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("ping"))
		} else {
			got = c.Recv(0, 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
}

func TestP2PTagMatching(t *testing.T) {
	var first, second []byte
	err := Run(machine.SP2(), 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("one"))
			c.Send(1, 2, []byte("two"))
		} else {
			// Receive out of tag order: tag 2 first.
			second = c.Recv(0, 2)
			first = c.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != "one" || string(second) != "two" {
		t.Fatalf("tag matching failed: %q %q", first, second)
	}
}

func TestP2PFIFOPerPair(t *testing.T) {
	err := Run(machine.T3D(), 2, 1, func(c *Comm) {
		const n = 20
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 0, []byte{byte(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := c.Recv(0, 0); got[0] != byte(i) {
					t.Errorf("message %d out of order: %d", i, got[0])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestP2PUnmatchedRecvDeadlocks: a receive nothing will match leaves its
// rank suspended with no event queued, and the deadlock report names
// the rank and what it waits for.
func TestP2PUnmatchedRecvDeadlocks(t *testing.T) {
	err := Run(machine.T3D(), 2, 1, func(c *Comm) {
		if c.Rank() == 1 {
			c.Recv(0, 0) // never sent
		}
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if want := "rank-1 (waiting: recv)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("deadlock report %q does not name %q", err, want)
	}
}

func TestSmallSendIsEager(t *testing.T) {
	// Below the eager limit the sender's elapsed time is its CPU
	// overhead, not the transfer.
	var sendElapsed sim.Duration
	err := Run(machine.SP2(), 2, 99, func(c *Comm) {
		if c.Rank() == 0 {
			start := c.Proc().Now()
			c.Send(1, 0, make([]byte, 1024))
			sendElapsed = c.Proc().Now().Sub(start)
		} else {
			c.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	o := machine.SP2().Costs(machine.OpP2P).Send
	if sendElapsed < o || sendElapsed > 2*o {
		t.Fatalf("send elapsed %v, want ≈%v (eager)", sendElapsed, o)
	}
}

func TestLargeSendBlocksForInjection(t *testing.T) {
	// Above the eager limit MPI_Send applies rendezvous flow control:
	// the call blocks until the data has left the node (64 KB at the
	// SP2's 13.3 MB/s effective rate ≈ 4.9 ms).
	var sendElapsed sim.Duration
	err := Run(machine.SP2(), 2, 99, func(c *Comm) {
		if c.Rank() == 0 {
			start := c.Proc().Now()
			c.Send(1, 0, make([]byte, 65536))
			sendElapsed = c.Proc().Now().Sub(start)
		} else {
			c.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if minSer := sim.PerByte(65536, 13.3); sendElapsed < minSer {
		t.Fatalf("64 KB send returned after %v, before injection could finish (%v)", sendElapsed, minSer)
	}
}

func TestRecvWaitsForTransmission(t *testing.T) {
	// 64 KB at SP2's 13.3 MB/s effective rate ≈ 4.9 ms; the receiver
	// cannot have it sooner.
	var recvDone sim.Time
	err := Run(machine.SP2(), 2, 1, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 65536))
		} else {
			c.Recv(0, 0)
			recvDone = c.Proc().Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	minSer := sim.PerByte(65536, 13.3)
	if recvDone < sim.Time(minSer) {
		t.Fatalf("recv completed at %v, faster than the wire allows (%v)", recvDone, minSer)
	}
}

func TestWtimeUsesSkewedClocks(t *testing.T) {
	clocks := make([]sim.Time, 4)
	err := Run(machine.SP2(), 4, 7, func(c *Comm) {
		clocks[c.Rank()] = c.Wtime()
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[sim.Time]bool{}
	for _, v := range clocks {
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatal("expected unsynchronized clocks across ranks")
	}
}

func TestBarrierHoldsBackEarlyRanks(t *testing.T) {
	for _, m := range machine.All() {
		exit := make([]sim.Time, 8)
		err := Run(m, 8, 1, func(c *Comm) {
			// Rank r arrives at r·100µs; nobody exits before the last.
			c.Compute(sim.Duration(c.Rank()) * 100 * sim.Microsecond)
			c.Barrier()
			exit[c.Rank()] = c.Proc().Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		last := sim.Time(700 * sim.Microsecond)
		for r, e := range exit {
			if e < last {
				t.Fatalf("%s: rank %d left the barrier at %v, before the last arrival at %v",
					m.Name(), r, e, last)
			}
		}
	}
}

func TestT3DBarrierUsesHardware(t *testing.T) {
	// The hardwired barrier completes in ≈3µs after the last arrival —
	// far below any message-based barrier on this machine.
	var done sim.Time
	err := Run(machine.T3D(), 64, 1, func(c *Comm) {
		c.Barrier()
		if c.Rank() == 0 {
			done = c.Proc().Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if done > sim.Time(10*sim.Microsecond) {
		t.Fatalf("T3D 64-node barrier took %v, want ≈3µs", done)
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	for _, m := range machine.All() {
		msg := []byte("broadcast-payload")
		got := make([][]byte, 16)
		err := Run(m, 16, 1, func(c *Comm) {
			var in []byte
			if c.Rank() == 5 {
				in = msg
			}
			got[c.Rank()] = c.Bcast(5, in)
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := range got {
			if !bytes.Equal(got[r], msg) {
				t.Fatalf("%s: rank %d got %q", m.Name(), r, got[r])
			}
		}
	}
}

func TestGatherScatterAlltoallOnSim(t *testing.T) {
	p := 8
	err := Run(machine.Paragon(), p, 1, func(c *Comm) {
		r := c.Rank()
		// Scatter from 0.
		var blocks [][]byte
		if r == 0 {
			blocks = make([][]byte, p)
			for i := range blocks {
				blocks[i] = []byte{byte(i), byte(i * 2)}
			}
		}
		mine := c.Scatter(0, blocks)
		if mine[0] != byte(r) || mine[1] != byte(r*2) {
			t.Errorf("rank %d scatter block wrong: %v", r, mine)
		}
		// Gather back to 3.
		all := c.Gather(3, mine)
		if r == 3 {
			for i, b := range all {
				if b[0] != byte(i) {
					t.Errorf("gather block %d wrong: %v", i, b)
				}
			}
		}
		// Alltoall.
		out := make([][]byte, p)
		for d := range out {
			out[d] = []byte{byte(r), byte(d)}
		}
		in := c.Alltoall(out)
		for s, b := range in {
			if b[0] != byte(s) || b[1] != byte(r) {
				t.Errorf("alltoall block from %d wrong: %v", s, b)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSumFloats(t *testing.T) {
	p := 16
	var result []float32
	err := Run(machine.T3D(), p, 1, func(c *Comm) {
		mine := EncodeFloats([]float32{float32(c.Rank()), 1})
		out := c.Reduce(0, mine, Sum, Float)
		if c.Rank() == 0 {
			result = DecodeFloats(out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSum := float32(p * (p - 1) / 2)
	if result[0] != wantSum || result[1] != float32(p) {
		t.Fatalf("reduce sum = %v, want [%v %v]", result, wantSum, p)
	}
}

func TestScanPrefixSums(t *testing.T) {
	p := 9
	results := make([][]float32, p)
	err := Run(machine.SP2(), p, 1, func(c *Comm) {
		mine := EncodeFloats([]float32{float32(c.Rank() + 1)})
		results[c.Rank()] = DecodeFloats(c.Scan(mine, Sum, Float))
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range results {
		want := float32((r + 1) * (r + 2) / 2)
		if v[0] != want {
			t.Fatalf("scan at rank %d = %v, want %v", r, v[0], want)
		}
	}
}

func TestAllreduceSumFloats(t *testing.T) {
	p := 8
	err := Run(machine.T3D(), p, 1, func(c *Comm) {
		mine := EncodeFloats([]float32{float32(c.Rank() + 1), 1})
		got := DecodeFloats(c.Allreduce(mine, Sum, Float))
		if got[0] != float32(p*(p+1)/2) || got[1] != float32(p) {
			t.Errorf("rank %d: allreduce sum = %v", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherOnSim(t *testing.T) {
	p := 6
	err := Run(machine.SP2(), p, 1, func(c *Comm) {
		all := c.Allgather([]byte{byte(c.Rank() * 3)})
		for i, b := range all {
			if b[0] != byte(i*3) {
				t.Errorf("allgather block %d = %v", i, b)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() sim.Time {
		var done sim.Time
		err := Run(machine.Paragon(), 16, 42, func(c *Comm) {
			blocks := make([][]byte, 16)
			for i := range blocks {
				blocks[i] = make([]byte, 1024)
			}
			c.Alltoall(blocks)
			if c.Rank() == 0 {
				done = c.Proc().Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different completion times: %v vs %v", a, b)
	}
}

func TestAlgorithmOverride(t *testing.T) {
	// Linear broadcast on 32 nodes must be slower than binomial.
	elapsed := func(alg string) sim.Time {
		cl := machine.NewCluster(machine.SP2(), 32, 1)
		algs := DefaultAlgorithms(machine.SP2())
		algs.Bcast = alg
		var done sim.Time
		if err := RunCluster(cl, algs, func(c *Comm) {
			var in []byte
			if c.Rank() == 0 {
				in = make([]byte, 1024)
			}
			c.Bcast(0, in)
			if c.Rank() == 31 {
				done = c.Proc().Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return done
	}
	lin, bin := elapsed("linear"), elapsed("binomial")
	if lin <= bin {
		t.Fatalf("linear bcast (%v) should be slower than binomial (%v) on 32 nodes", lin, bin)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := []float32{0, 1.5, -3.25, 1e20, -1e-20}
	if got := DecodeFloats(EncodeFloats(f)); len(got) != len(f) {
		t.Fatal("length mismatch")
	} else {
		for i := range f {
			if got[i] != f[i] {
				t.Fatalf("float %d: %v != %v", i, got[i], f[i])
			}
		}
	}
	n := []int32{0, 1, -1, 1 << 30, -(1 << 30)}
	got := DecodeInts(EncodeInts(n))
	for i := range n {
		if got[i] != n[i] {
			t.Fatalf("int %d: %v != %v", i, got[i], n[i])
		}
	}
}

func TestDatatypeSizes(t *testing.T) {
	if Float.Size() != 4 || Float.Name() != "MPI_FLOAT" {
		t.Fatal("MPI_FLOAT should be 4 bytes (paper §2)")
	}
	if Float.Count(make([]byte, 64)) != 16 {
		t.Fatal("count wrong")
	}
}

func TestGathervOnSim(t *testing.T) {
	p := 6
	err := Run(machine.T3D(), p, 1, func(c *Comm) {
		// Rank r sends r bytes.
		out := c.Gatherv(0, bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()))
		if c.Rank() != 0 {
			return
		}
		for i, b := range out {
			if !bytes.Equal(b, bytes.Repeat([]byte{byte(i)}, i)) {
				t.Errorf("gatherv block %d = %v", i, b)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReduceScatterOnSim runs coll.ReduceScatter, which the long-message
// allreduce uses, over the simulated communicator.
func TestReduceScatterOnSim(t *testing.T) {
	p := 8
	err := Run(machine.SP2(), p, 1, func(c *Comm) {
		blocks := make([][]byte, p)
		for i := range blocks {
			blocks[i] = EncodeFloats([]float32{float32(c.Rank() + i)})
		}
		got := DecodeFloats(coll.ReduceScatter(c, blocks, Sum.Combiner(Float)))
		want := float32(p*(p-1)/2 + p*c.Rank())
		if got[0] != want {
			t.Errorf("rank %d: %v, want %v", c.Rank(), got[0], want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
