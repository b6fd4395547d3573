package measure

import (
	"context"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// TestMeasureAllocBudget counts the allocations of one whole
// measurement (one recording of 32 ranks, then two replayed executions
// under Fast) and fails above its budget. The simulator's message path
// allocates nothing in steady state, and a recording reuses its pooled
// buffers, so what remains is per measurement: the recording
// goroutines and its result, the cluster, the player, the collectives'
// block slices and the network's route memo. A per-message allocation
// would add thousands, a per-call or per-step one hundreds. The counts
// depend only on the simulated program, not on the host.
func TestMeasureAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; counts are meaningless")
	}
	for _, c := range []struct {
		mach   *machine.Machine
		op     machine.Op
		budget float64
	}{
		{machine.T3D(), machine.OpAlltoall, 180},
		{machine.Paragon(), machine.OpBroadcast, 125},
		{machine.SP2(), machine.OpReduce, 175},
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
