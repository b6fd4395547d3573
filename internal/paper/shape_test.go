// The tests of this external package check the paper's claims against
// the simulator. They live outside package paper because measure
// imports it.
package paper_test

import (
	"testing"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/paper"
)

// These tests assert the paper's headline *shape* claims against the
// simulator — machine rankings, crossovers, and magnitudes. They are the
// acceptance criteria of the reproduction (docs/ARCHITECTURE.md,
// "Substitutions": the calibration fixes magnitudes, the shapes are what
// is tested), so they run on the real 64-node configurations.

var shapeCfg = measure.Config{Warmup: 1, K: 2, Reps: 1, Seed: 1}

func meas(name string, op machine.Op, p, m int) float64 {
	return measure.MeasureOp(machine.ByName(name), op, p, m, shapeCfg).Micros
}

// bandwidth estimates the §8 aggregated bandwidth R∞(p) = f(p)/s(p) in
// MB/s, with the per-byte slope s(p) fitted over an m-sweep at p whose
// shortest length (lengths[0]) is the startup baseline.
func bandwidth(name string, op machine.Op, p int, lengths []int, cfg measure.Config) float64 {
	m := machine.ByName(name)
	d := estimate.BuildDataset(m, op, mpi.DefaultAlgorithms(m), []int{p}, lengths, cfg)
	s, _ := d.PerByteSlope(p, lengths[0])
	if s <= 0 {
		return 0
	}
	return paper.AggregatedMultiplier(op, p) / s
}

func TestShapeT3DBarrierAtLeast30xFaster(t *testing.T) {
	// Abstract: "With hardwired barriers, the T3D performs the barrier
	// synchronization in 3 µs, at least 30 times faster than the SP2 or
	// Paragon."
	t3d := meas("T3D", machine.OpBarrier, 64, 0)
	if t3d > 6 {
		t.Fatalf("T3D 64-node barrier %v µs, want ≈3", t3d)
	}
	for _, other := range []string{"SP2", "Paragon"} {
		v := meas(other, machine.OpBarrier, 64, 0)
		if v/t3d < 30 {
			t.Errorf("%s barrier only %.0fx slower than the T3D's", other, v/t3d)
		}
	}
}

func TestShapeSP2BeatsParagonShortMessages(t *testing.T) {
	// Abstract: "For short messages, the SP2 outperforms the Paragon in
	// the barrier, total exchange, scatter, and gather operations."
	for _, op := range []machine.Op{machine.OpBarrier, machine.OpAlltoall, machine.OpScatter, machine.OpGather} {
		m := 16
		if op == machine.OpBarrier {
			m = 0
		}
		sp2 := meas("SP2", op, 64, m)
		par := meas("Paragon", op, 64, m)
		if sp2 >= par {
			t.Errorf("short %s: SP2 %.1f µs should beat Paragon %.1f µs", op, sp2, par)
		}
	}
}

func TestShapeParagonBeatsSP2LongMessagesExceptReduce(t *testing.T) {
	// §5/§9: "the Paragon outperforms the SP2 in almost all operations
	// [with long messages] except the reduce operation."
	for _, op := range []machine.Op{machine.OpBroadcast, machine.OpAlltoall, machine.OpScatter, machine.OpGather} {
		sp2 := meas("SP2", op, 64, 65536)
		par := meas("Paragon", op, 64, 65536)
		if par >= sp2 {
			t.Errorf("long %s: Paragon %.1f µs should beat SP2 %.1f µs", op, par, sp2)
		}
	}
	if sp2, par := meas("SP2", machine.OpReduce, 64, 65536), meas("Paragon", machine.OpReduce, 64, 65536); sp2 >= par {
		t.Errorf("long reduce: SP2 %.1f µs should beat Paragon %.1f µs", sp2, par)
	}
}

func TestShapeT3DWinsAlmostAllCollectives(t *testing.T) {
	// §9: "the T3D does uniformly best in all collective functions, with
	// the only exception of trailing the Paragon in … scan."
	for _, op := range []machine.Op{machine.OpBarrier, machine.OpBroadcast, machine.OpGather, machine.OpAlltoall, machine.OpReduce} {
		for _, m := range []int{16, 65536} {
			msg := m
			if op == machine.OpBarrier {
				if m > 16 {
					continue
				}
				msg = 0
			}
			if op == machine.OpReduce && m == 65536 {
				// Table 3 itself puts the SP2 ahead of the T3D for the
				// 64 KB reduce (§8 ranks reduce bandwidth "SP2, T3D,
				// Paragon"); the prose's "uniformly best" excludes it.
				continue
			}
			t3d := meas("T3D", op, 64, msg)
			for _, other := range []string{"SP2", "Paragon"} {
				if v := meas(other, op, 64, msg); t3d >= v {
					t.Errorf("%s m=%d: T3D %.1f µs should beat %s %.1f µs", op, msg, t3d, other, v)
				}
			}
		}
	}
}

func TestShapeParagonScanLatencyBeatsT3D(t *testing.T) {
	// §4: the Paragon "performs the scan operation with even shorter
	// latency than the T3D" (Fig. 1e, 16+ nodes).
	par := meas("Paragon", machine.OpScan, 64, 4)
	t3d := meas("T3D", machine.OpScan, 64, 4)
	if par >= t3d {
		t.Errorf("scan startup: Paragon %.1f µs should beat T3D %.1f µs", par, t3d)
	}
}

func TestShapeAggregatedBandwidthOrderingAndMagnitude(t *testing.T) {
	// §8: 64-node total exchange reaches 1.745, 0.879, 0.818 GB/s on
	// T3D, Paragon, SP2 — ordering must hold, magnitudes within 2x.
	want := map[string]float64{"T3D": 1745, "Paragon": 879, "SP2": 818}
	got := map[string]float64{}
	for name, ref := range want {
		bw := bandwidth(name, machine.OpAlltoall, 64, []int{4, 16384, 65536}, shapeCfg)
		got[name] = bw
		if bw < ref/2 || bw > ref*2 {
			t.Errorf("%s alltoall R∞(64) = %.0f MB/s, paper %v (outside 2x)", name, bw, ref)
		}
	}
	if !(got["T3D"] > got["Paragon"] && got["Paragon"] > got["SP2"]) {
		t.Errorf("bandwidth ordering broken: %v", got)
	}
}

func TestShapeSP2ParagonCrossoverWithMessageLength(t *testing.T) {
	// §5: "the SP2 is faster than Paragon in handling short messages.
	// But for longer messages, the Paragon outperforms the SP2" — find
	// the measured alltoall crossover; the fits place it near 12 KB at
	// p=64, and it must exist between 256 B and 64 KB.
	prev := false
	var cross int
	for _, m := range []int{16, 256, 1024, 4096, 16384, 65536} {
		wins := meas("Paragon", machine.OpAlltoall, 64, m) < meas("SP2", machine.OpAlltoall, 64, m)
		if wins && !prev {
			cross = m
		}
		prev = wins
	}
	if !prev {
		t.Fatal("Paragon never overtakes the SP2 up to 64 KB")
	}
	if cross < 256 || cross > 65536 {
		t.Errorf("crossover at m=%d, expected within (256 B, 64 KB)", cross)
	}
}

func TestShapeSixtyFourKBRange(t *testing.T) {
	// Abstract: "Various collective operations with 64 KBytes per
	// message over 64 nodes … can be completed in the time range
	// (5.12 ms, 675 ms)."
	lo, hi := 1e18, 0.0
	for _, mach := range machine.All() {
		for _, op := range machine.Ops {
			if op == machine.OpBarrier {
				continue
			}
			v := meas(mach.Name(), op, 64, 65536)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if lo < 2_000 || lo > 10_000 {
		t.Errorf("fastest 64KB/64-node op %.0f µs, paper says ≈5.12 ms", lo)
	}
	if hi < 150_000 || hi > 800_000 {
		t.Errorf("slowest 64KB/64-node op %.0f µs, paper says hundreds of ms", hi)
	}
}

func TestShapeStartupGrowthRates(t *testing.T) {
	// §4: startup grows linearly in p for gather/scatter/alltoall and
	// logarithmically for broadcast/scan/reduce/barrier. Compare the
	// p=16→64 growth: linear ops should roughly 4x, log ops should stay
	// well under 2.5x.
	for _, mach := range []string{"SP2", "Paragon"} {
		for _, op := range []machine.Op{machine.OpGather, machine.OpScatter, machine.OpAlltoall} {
			r := meas(mach, op, 64, 4) / meas(mach, op, 16, 4)
			// The fits' additive constants damp the ideal 4x (the
			// paper's own SP2 gather fit grows 1.95x over this range).
			if r < 1.8 {
				t.Errorf("%s/%s startup grew only %.2fx from p=16→64, want ≥1.8x (linear)", mach, op, r)
			}
		}
		for _, op := range []machine.Op{machine.OpBroadcast, machine.OpReduce, machine.OpBarrier} {
			m := 4
			if op == machine.OpBarrier {
				m = 0
			}
			r := meas(mach, op, 64, m) / meas(mach, op, 16, m)
			if r > 1.7 {
				t.Errorf("%s/%s startup grew %.2fx from p=16→64, want ≈1.5x (log)", mach, op, r)
			}
		}
	}
}
