package measure

import (
	"testing"

	"repro/internal/coll"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/paper"
)

func TestMeasureBarrierT3DNearHardwareCost(t *testing.T) {
	s := MeasureOp(machine.T3D(), machine.OpBarrier, 64, 0, Fast())
	if s.Micros < 2.5 || s.Micros > 6 {
		t.Fatalf("T3D 64-node barrier measured %.2f µs, want ≈3 µs", s.Micros)
	}
}

func TestMeasureBarrierSP2LogGrowth(t *testing.T) {
	cfg := Fast()
	t8 := MeasureOp(machine.SP2(), machine.OpBarrier, 8, 0, cfg).Micros
	t64 := MeasureOp(machine.SP2(), machine.OpBarrier, 64, 0, cfg).Micros
	// Tree barrier: doubling log p (3→6) should roughly double time,
	// nowhere near the 8x of linear growth.
	ratio := t64 / t8
	if ratio < 1.5 || ratio > 3.5 {
		t.Fatalf("SP2 barrier grew %.2fx from p=8 to p=64, want ≈2x (log shape)", ratio)
	}
}

func TestMeasureMonotonicInMessageLength(t *testing.T) {
	cfg := Fast()
	prev := 0.0
	for _, m := range []int{4, 1024, 16384, 65536} {
		v := MeasureOp(machine.SP2(), machine.OpBroadcast, 16, m, cfg).Micros
		if v <= prev {
			t.Fatalf("broadcast time not increasing with m: %v then %v at m=%d", prev, v, m)
		}
		prev = v
	}
}

func TestMeasureAlltoallGrowsWithMachineSize(t *testing.T) {
	cfg := Fast()
	prev := 0.0
	for _, p := range []int{2, 8, 32} {
		v := MeasureOp(machine.Paragon(), machine.OpAlltoall, p, 256, cfg).Micros
		if v <= prev {
			t.Fatalf("alltoall time not increasing with p at p=%d", p)
		}
		prev = v
	}
}

func TestSampleStatsOrdered(t *testing.T) {
	s := MeasureOp(machine.SP2(), machine.OpReduce, 8, 64, Config{Warmup: 1, K: 3, Reps: 4, Seed: 9})
	if s.MinMicros > s.Micros || s.Micros > s.MaxMicros {
		t.Fatalf("min %.2f ≤ mean %.2f ≤ max %.2f violated", s.MinMicros, s.Micros, s.MaxMicros)
	}
	if s.Machine != "SP2" || s.Op != machine.OpReduce || s.P != 8 || s.M != 64 {
		t.Fatal("sample metadata wrong")
	}
}

func TestMeasureDeterministicGivenSeed(t *testing.T) {
	cfg := Fast()
	a := MeasureOp(machine.T3D(), machine.OpScan, 16, 256, cfg).Micros
	b := MeasureOp(machine.T3D(), machine.OpScan, 16, 256, cfg).Micros
	if a != b {
		t.Fatalf("same config measured %v then %v", a, b)
	}
}

func TestStartupLatencyUsesShortMessage(t *testing.T) {
	cfg := Fast()
	t0 := StartupLatency(machine.T3D(), machine.OpBroadcast, 16, cfg)
	full := MeasureOp(machine.T3D(), machine.OpBroadcast, 16, 65536, cfg).Micros
	if t0 >= full {
		t.Fatalf("startup %.1f should be far below the 64KB time %.1f", t0, full)
	}
}

func TestPaperSweepBounds(t *testing.T) {
	t3d := paper.MachineSizes(machine.T3D().Name())
	if t3d[len(t3d)-1] != 64 {
		t.Fatal("T3D sweep must stop at 64 nodes")
	}
	sp2 := paper.MachineSizes(machine.SP2().Name())
	if sp2[len(sp2)-1] != 128 {
		t.Fatal("SP2 sweep must reach 128 nodes")
	}
	lens := PaperLengths()
	if lens[0] != 4 || lens[len(lens)-1] != 65536 {
		t.Fatalf("lengths %v", lens)
	}
}

func TestAllOpsMeasurableOnAllMachines(t *testing.T) {
	cfg := Config{Warmup: 0, K: 1, Reps: 1, Seed: 1}
	for _, m := range machine.All() {
		for _, op := range machine.Ops {
			s := MeasureOp(m, op, 4, 16, cfg)
			if s.Micros <= 0 {
				t.Errorf("%s/%s measured %v µs", m.Name(), op, s.Micros)
			}
		}
	}
}

func TestExtensionOpsMeasurable(t *testing.T) {
	cfg := Config{Warmup: 0, K: 1, Reps: 1, Seed: 1}
	for _, op := range []machine.Op{machine.OpAllgather, machine.OpAllreduce} {
		s := MeasureOp(machine.T3D(), op, 8, 64, cfg)
		if s.Micros <= 0 {
			t.Errorf("%s measured %v", op, s.Micros)
		}
	}
}

func TestSampleRankStatsOrdered(t *testing.T) {
	// §2: the harness collects min, max, and mean over all processes;
	// they must be consistently ordered.
	s := MeasureOp(machine.Paragon(), machine.OpAlltoall, 8, 1024, Fast())
	if s.RankMin > s.RankMean || s.RankMean > s.Micros {
		t.Fatalf("rank stats out of order: min %.1f mean %.1f max %.1f",
			s.RankMin, s.RankMean, s.Micros)
	}
	if s.RankMin <= 0 {
		t.Fatal("rank min should be positive")
	}
}

func TestMeasureOpWithDefaultTableMatchesMeasureOp(t *testing.T) {
	m := machine.T3D()
	a := MeasureOp(m, machine.OpAlltoall, 4, 256, Fast())
	b := MeasureOpWith(m, machine.OpAlltoall, 4, 256, Fast(), mpi.DefaultAlgorithms(m))
	if a != b {
		t.Fatalf("default-table MeasureOpWith diverged: %+v vs %+v", a, b)
	}
	c := MeasureOpWith(m, machine.OpAlltoall, 4, 256, Fast(),
		mpi.DefaultAlgorithms(m).With(machine.OpAlltoall, coll.AlgBruck))
	if c == a {
		t.Fatal("bruck alltoall measured identically to pairwise — algorithm table ignored")
	}
}
