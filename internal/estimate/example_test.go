package estimate_test

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
)

// ExampleCompare runs every collective on all three simulated machines
// at one configuration and reproduces the paper's headline observations —
// the T3D's across-the-board lead, its 3 µs hardwired barrier, and the
// SP2/Paragon ranking flip between short and long messages.
//
// The comparison loop goes through the estimate package, so swapping
// the exact simulator for the instant analytic backend is a one-line
// change (see the closing Table 3 cross-check).
func ExampleCompare() {
	const p = 32
	cfg := measure.Fast()
	sim := estimate.Sim{}

	for _, m := range []int{16, 65536} {
		fmt.Printf("== p=%d nodes, m=%d bytes per pair ==\n", p, m)
		fmt.Printf("  %-10s %12s %12s %12s   winner\n", "operation", "SP2", "T3D", "Paragon")
		for _, op := range machine.Ops {
			ests, err := estimate.Compare(sim, machine.Names(), op, p, m, cfg)
			if err != nil {
				panic(err) // the fixed study's names always resolve
			}
			times := map[string]float64{}
			for _, e := range ests {
				times[e.Sample.Machine] = e.Sample.Micros
			}
			fmt.Printf("  %-10s %10.1fµs %10.1fµs %10.1fµs   %s\n",
				op, times["SP2"], times["T3D"], times["Paragon"],
				estimate.Fastest(ests).Sample.Machine)
		}
		fmt.Println()
	}
	fmt.Println("Short messages: the SP2 leads the Paragon (NX startup).")
	fmt.Println("Long messages: the Paragon overtakes the SP2 everywhere but reduce.")
	fmt.Println("The T3D leads almost everything — hardwired barrier, BLT, fast messaging.")

	// The same comparison answered without simulating anything: the
	// paper's Table 3 expressions through the analytic backend.
	analytic := estimate.PaperAnalytic()
	fmt.Println("\nTable 3 cross-check (analytic backend, no simulation):")
	for _, m := range []int{16, 65536} {
		ests, err := estimate.Compare(analytic, machine.Names(), machine.OpAlltoall, p, m, cfg)
		if err != nil {
			panic(err)
		}
		best := estimate.Fastest(ests)
		fmt.Printf("  alltoall m=%-6d → %s predicts %s at %.1f µs\n",
			m, estimate.BackendAnalytic, best.Sample.Machine, best.Sample.Micros)
	}

	// Output:
	// == p=32 nodes, m=16 bytes per pair ==
	//   operation           SP2          T3D      Paragon   winner
	//   barrier         624.3µs        3.1µs      738.4µs   T3D
	//   broadcast       297.6µs      136.0µs      272.4µs   T3D
	//   gather          246.5µs      200.3µs     1523.7µs   T3D
	//   scatter         262.7µs      203.0µs      639.5µs   T3D
	//   reduce          342.9µs      196.7µs      400.0µs   T3D
	//   scan            486.9µs      179.7µs      153.2µs   Paragon
	//   alltoall        947.4µs      853.3µs     3208.6µs   T3D
	//
	// == p=32 nodes, m=65536 bytes per pair ==
	//   operation           SP2          T3D      Paragon   winner
	//   barrier         624.3µs        3.1µs      738.4µs   T3D
	//   broadcast      8489.5µs     4391.3µs     5091.0µs   T3D
	//   gather        50866.0µs     9576.5µs    18541.8µs   T3D
	//   scatter       79622.4µs    18672.2µs    12248.2µs   Paragon
	//   reduce         9375.7µs    17758.4µs    51440.5µs   SP2
	//   scan          15253.8µs    19579.5µs    26112.6µs   SP2
	//   alltoall     167433.5µs    74693.2µs   147457.7µs   T3D
	//
	// Short messages: the SP2 leads the Paragon (NX startup).
	// Long messages: the Paragon overtakes the SP2 everywhere but reduce.
	// The T3D leads almost everything — hardwired barrier, BLT, fast messaging.
	//
	// Table 3 cross-check (analytic backend, no simulation):
	//   alltoall m=16     → analytic predicts T3D at 858.1 µs
	//   alltoall m=65536  → analytic predicts T3D at 72668.1 µs
}
