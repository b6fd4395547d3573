package measure

import (
	"context"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// TestMeasureAllocBudget counts the allocations of one whole
// measurement (two executions under Fast, each spawning 32 rank
// processes) and fails above its budget. The simulator's message path
// allocates nothing in steady state, so what remains is per execution
// and per rank (processes, communicators, the collectives' block
// slices) plus the network's route memo: a per-message allocation would
// add thousands, a per-call one (a reduction's combiner, the T3D's
// hardware barrier) hundreds. The counts depend only on the simulated
// program, not on the host.
func TestMeasureAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; counts are meaningless")
	}
	for _, c := range []struct {
		mach   *machine.Machine
		op     machine.Op
		budget float64
	}{
		{machine.T3D(), machine.OpAlltoall, 580},
		{machine.Paragon(), machine.OpBroadcast, 315},
		{machine.SP2(), machine.OpReduce, 386},
	} {
		algs := mpi.DefaultAlgorithms(c.mach)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := MeasureOpCtx(context.Background(), c.mach, c.op, 32, 1024, Fast(), algs); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s %s p=32 m=1024: %.0f allocations per measurement", c.mach.Name(), c.op, allocs)
		if allocs > c.budget {
			t.Errorf("%s %s p=32 m=1024: %.0f allocations per measurement, budget %.0f",
				c.mach.Name(), c.op, allocs, c.budget)
		}
	}
}
