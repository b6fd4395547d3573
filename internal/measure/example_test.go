package measure_test

import (
	"context"
	"fmt"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Example_quickstart allocates a simulated multicomputer, runs MPI
// collectives on it, and times them the way the paper does.
func Example_quickstart() {
	// A 16-node Cray T3D. SP2() and Paragon() work the same way.
	mach := machine.T3D()

	// Run an SPMD program: every rank executes the body, blocking MPI
	// calls and all — the simulator keeps virtual time.
	var bcastDone, alltoallDone sim.Time
	err := mpi.Run(mach, 16, 1, func(c *mpi.Comm) {
		// Broadcast 4 KB from rank 0.
		var msg []byte
		if c.Rank() == 0 {
			msg = make([]byte, 4096)
		}
		msg = c.Bcast(0, msg)
		c.Barrier()
		if c.Rank() == 0 {
			bcastDone = c.Proc().Now()
		}

		// Total exchange: 1 KB to every peer.
		blocks := make([][]byte, c.Size())
		for i := range blocks {
			blocks[i] = make([]byte, 1024)
		}
		c.Alltoall(blocks)
		c.Barrier()
		if c.Rank() == 0 {
			alltoallDone = c.Proc().Now()
		}

		// A global sum, as applications do.
		local := mpi.EncodeFloats([]float32{float32(c.Rank())})
		sum := mpi.DecodeFloats(c.Allreduce(local, mpi.Sum, mpi.Float))
		if c.Rank() == 0 && sum[0] != 120 {
			panic("bad sum")
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("T3D/16: broadcast(4KB) + barrier finished at %v\n", bcastDone)
	fmt.Printf("T3D/16: alltoall(1KB) + barrier finished at  %v\n", alltoallDone)

	// The estimation backends answer the same question two ways: the
	// sim backend applies the paper's full measurement procedure
	// (warm-up discard, k-iteration loop, max-reduce over ranks); the
	// analytic backend evaluates the paper's Table 3 expression in
	// closed form, no simulation at all.
	algs := mpi.DefaultAlgorithms(mach)
	measured, err := estimate.Sim{}.Estimate(context.Background(), mach, machine.OpAlltoall, algs, 16, 1024, measure.Paper())
	if err != nil {
		panic(err)
	}
	predicted, err := estimate.PaperAnalytic().Estimate(context.Background(), mach, machine.OpAlltoall, algs, 16, 1024, measure.Paper())
	if err != nil {
		panic(err)
	}
	fmt.Printf("paper procedure (sim backend):      T(1KB, 16) = %.1f µs for the T3D total exchange\n",
		measured.Sample.Micros)
	fmt.Printf("Table 3 fit (analytic backend):     T(1KB, 16) = %.1f µs — predicted without simulating\n",
		predicted.Sample.Micros)

	// Output:
	// T3D/16: broadcast(4KB) + barrier finished at 342.44µs
	// T3D/16: alltoall(1KB) + barrier finished at  1272.44µs
	// paper procedure (sim backend):      T(1KB, 16) = 913.9 µs for the T3D total exchange
	// Table 3 fit (analytic backend):     T(1KB, 16) = 924.3 µs — predicted without simulating
}

// Example_clockskew shows why the paper measures the way it does.
//
// The paper's §2 notes a technical difficulty: "the allocated nodes are
// often not time synchronized, each having its own clock". This example
// shows what goes wrong if you time a collective naively — subtracting a
// start timestamp on one node from an end timestamp on another — and how
// the paper's procedure (per-rank averages over a k-loop, then a maximum
// reduce) eliminates the skew.
func Example_clockskew() {
	const p, msg = 32, 1024
	mach := machine.SP2() // up to ±50 µs of per-node clock offset

	// Naive cross-node timing: rank 0 stamps "start", the last rank
	// stamps "end" after the broadcast, and we subtract. The skew
	// between the two nodes' clocks lands directly in the result.
	var naive sim.Duration
	err := mpi.Run(mach, p, 1, func(c *mpi.Comm) {
		c.Barrier()
		var t0 sim.Time
		if c.Rank() == 0 {
			t0 = c.Wtime() // rank 0's clock
		}
		var buf []byte
		if c.Rank() == 0 {
			buf = make([]byte, msg)
		}
		c.Bcast(0, buf)
		if c.Rank() == p-1 {
			// end on a DIFFERENT node's clock
			end := c.Wtime()
			startBytes := c.Recv(0, 99)
			start := sim.Time(int64(startBytes[0]) | int64(startBytes[1])<<8 |
				int64(startBytes[2])<<16 | int64(startBytes[3])<<24 |
				int64(startBytes[4])<<32)
			naive = end.Sub(start)
		}
		if c.Rank() == 0 {
			v := int64(t0)
			c.Send(p-1, 99, []byte{
				byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32)})
		}
	})
	if err != nil {
		panic(err)
	}

	// The paper's procedure: each rank times its own k-loop on its own
	// clock (skew cancels in the subtraction), then the maximum is taken.
	s := measure.MeasureOp(mach, machine.OpBroadcast, p, msg, measure.Paper())

	fmt.Printf("naive cross-node timing:   %8.1f µs  (skew-contaminated)\n", sim.Duration(naive).Micros())
	fmt.Printf("paper's procedure:         %8.1f µs  (per-rank loop + max-reduce)\n", s.Micros)
	fmt.Printf("per-rank spread this run:  min %.1f / mean %.1f / max %.1f µs\n",
		s.RankMin, s.RankMean, s.Micros)
	fmt.Println("\nThe naive number includes the clock offset between two nodes and the")
	fmt.Println("message that shipped the timestamp; the looped per-rank measurement")
	fmt.Println("uses each clock only against itself.")

	// Output:
	// naive cross-node timing:      495.9 µs  (skew-contaminated)
	// paper's procedure:            299.8 µs  (per-rank loop + max-reduce)
	// per-rank spread this run:  min 298.0 / mean 298.9 / max 299.8 µs
	//
	// The naive number includes the clock offset between two nodes and the
	// message that shipped the timestamp; the looped per-rank measurement
	// uses each clock only against itself.
}
