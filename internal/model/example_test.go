package model_test

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/model"
)

// ExampleWorkload_BestSize uses the paper's closed-form expressions to
// pick a machine size — the "trade-offs between divided computation and collective
// communication" the abstract says the findings are for.
//
// A data-parallel solver has 2 s of serial arithmetic per step and one
// total exchange per step whose per-pair message shrinks as the data
// divides. More nodes cut the compute linearly but push the O(p)
// alltoall startup up: somewhere in between is the sweet spot, and it
// differs per machine.
func ExampleWorkload_BestSize() {
	pr := model.FromPaper()
	w := model.Workload{
		SerialMicros: 2e6,
		Op:           machine.OpAlltoall,
		BytesPerPair: func(p int) int { return 8 << 20 / (p * p) }, // 8 MB matrix divided p×p
		Steps:        100,
	}
	candidates := []int{2, 4, 8, 16, 32, 64, 128}

	for _, mach := range []string{"SP2", "T3D", "Paragon"} {
		cands := candidates
		if mach == "T3D" {
			cands = candidates[:6] // the study had 64 T3D nodes
		}
		best, t := w.BestSize(pr, mach, cands)
		fmt.Printf("%-8s best machine size p=%-3d  job time %8.2f s  (comm %4.1f%% per step)\n",
			mach, best, t/1e6, 100*w.CommFraction(pr, mach, best))
		for _, p := range cands {
			fmt.Printf("    p=%-3d  step %9.1f µs  comm %9.1f µs\n",
				p, w.StepTime(pr, mach, p),
				w.StepTime(pr, mach, p)*w.CommFraction(pr, mach, p))
		}
	}
	fmt.Println("\nNote how the Paragon's long NX startup pushes its optimum toward")
	fmt.Println("fewer nodes than the T3D's — ranking machines by one collective at")
	fmt.Println("one size does not predict another, which is the paper's §8 warning.")

	// Output:
	// SP2      best machine size p=128  job time     2.40 s  (comm 34.9% per step)
	//     p=2    step 1000138.0 µs  comm     138.0 µs
	//     p=4    step  520108.9 µs  comm   20108.9 µs
	//     p=8    step  298254.4 µs  comm   48254.4 µs
	//     p=16   step  158962.9 µs  comm   33962.9 µs
	//     p=32   step   82478.1 µs  comm   19978.1 µs
	//     p=64   step   43030.0 µs  comm   11780.0 µs
	//     p=128  step   24012.5 µs  comm    8387.5 µs
	// T3D      best machine size p=64   job time     3.77 s  (comm 17.0% per step)
	//     p=2    step 1000060.6 µs  comm      60.6 µs
	//     p=4    step  516889.8 µs  comm   16889.8 µs
	//     p=8    step  274333.8 µs  comm   24333.8 µs
	//     p=16   step  141415.4 µs  comm   16415.4 µs
	//     p=32   step   72319.0 µs  comm    9819.0 µs
	//     p=64   step   37657.6 µs  comm    6407.6 µs
	// Paragon  best machine size p=128  job time     3.29 s  (comm 52.4% per step)
	//     p=2    step 1096745.0 µs  comm   96745.0 µs
	//     p=4    step  601133.3 µs  comm  101133.3 µs
	//     p=8    step  314296.8 µs  comm   64296.8 µs
	//     p=16   step  161630.2 µs  comm   36630.2 µs
	//     p=32   step   84003.3 µs  comm   21503.3 µs
	//     p=64   step   46903.5 µs  comm   15653.5 µs
	//     p=128  step   32855.9 µs  comm   17230.9 µs
	//
	// Note how the Paragon's long NX startup pushes its optimum toward
	// fewer nodes than the T3D's — ranking machines by one collective at
	// one size does not predict another, which is the paper's §8 warning.
}
