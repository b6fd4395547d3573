package paper

import (
	"math"
	"testing"

	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/sim"
)

// These tests verify that our transcription of Table 3 is internally
// consistent with every number the paper quotes in prose — a guard
// against transcription errors in the reference data.

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func TestTable3Complete(t *testing.T) {
	for _, mach := range []string{"SP2", "T3D", "Paragon"} {
		for _, op := range machine.Ops {
			e, ok := Expression(mach, op)
			if !ok {
				t.Fatalf("missing Table 3 entry %s/%s", mach, op)
			}
			if op == machine.OpBarrier && !e.StartupOnly() {
				t.Errorf("%s barrier should be startup-only", mach)
			}
			if op != machine.OpBarrier && e.StartupOnly() {
				t.Errorf("%s/%s lost its per-byte term", mach, op)
			}
		}
	}
}

func TestTable3MatchesSection8Example(t *testing.T) {
	// §8: "the total exchange time on the T3D … given m = 512 bytes and
	// p = 64, the time … is calculated as 2.86 ms".
	e, _ := Expression("T3D", machine.OpAlltoall)
	if got := e.Eval(512, 64); relErr(got, 2860) > 0.01 {
		t.Fatalf("T3D alltoall(512, 64) = %v µs, paper says 2.86 ms", got)
	}
}

func TestTable3MatchesSection4Latencies(t *testing.T) {
	// §4 quotes measured T3D startup latencies at p=64; the Table 3
	// fits reproduce them within the paper's own fitting error (≤16%).
	for _, sv := range Reported {
		if sv.Where != "§4" || sv.P != 64 {
			continue
		}
		e, _ := Expression(sv.Machine, sv.Op)
		if got := e.EvalStartup(64); relErr(got, sv.Value) > 0.16 {
			t.Errorf("%s %s startup(64) = %.1f µs, paper quotes %v", sv.Machine, sv.Op, got, sv.Value)
		}
	}
}

func TestTable3MatchesAggregatedBandwidths(t *testing.T) {
	// §8: 64-node total exchange reaches 1.745, 0.879, 0.818 GB/s on
	// T3D, Paragon, SP2.
	want := map[string]float64{"T3D": 1745, "Paragon": 879, "SP2": 818}
	for mach, bw := range want {
		e, _ := Expression(mach, machine.OpAlltoall)
		got := AggregatedBandwidthMBs(e, machine.OpAlltoall, 64)
		if relErr(got, bw) > 0.01 {
			t.Errorf("%s R∞(64) = %.0f MB/s, paper says %v", mach, got, bw)
		}
	}
}

func TestTable3MatchesSP2TotalExchangeExample(t *testing.T) {
	// §5: "in 64 node total exchange the SP2 requires 317 ms to
	// transmit messages of 64 KBytes each". The fit gives ≈346 ms; the
	// paper's own fit-vs-quote discrepancy is ≈9%.
	e, _ := Expression("SP2", machine.OpAlltoall)
	got := e.Eval(65536, 64)
	if relErr(got, 317_000) > 0.12 {
		t.Fatalf("SP2 alltoall(64KB, 64) = %.0f µs, paper quotes 317 ms", got)
	}
}

func TestT3DBarrierIsAtLeast30xFaster(t *testing.T) {
	// Abstract: "the T3D performs the barrier synchronization in 3 µs,
	// at least 30 times faster than the SP2 or Paragon".
	t3d, _ := Expression("T3D", machine.OpBarrier)
	for _, other := range []string{"SP2", "Paragon"} {
		e, _ := Expression(other, machine.OpBarrier)
		for _, p := range []int{8, 16, 32, 64} {
			ratio := e.EvalStartup(p) / t3d.EvalStartup(p)
			if ratio < 30 {
				t.Errorf("%s barrier only %.0fx slower than T3D at p=%d", other, ratio, p)
			}
		}
	}
}

func TestStartupShapesMatchSection8(t *testing.T) {
	// §8: O(log p) startup for barrier, scan, reduce, broadcast;
	// O(p) for gather, scatter, total exchange.
	wantLog := map[machine.Op]bool{
		machine.OpBarrier: true, machine.OpScan: true,
		machine.OpReduce: true, machine.OpBroadcast: true,
	}
	for _, op := range machine.Ops {
		shape := StartupShape(op)
		if wantLog[op] && shape != fit.Log {
			t.Errorf("%s startup should be logarithmic", op)
		}
		if !wantLog[op] && shape != fit.Linear {
			t.Errorf("%s startup should be linear", op)
		}
		// The transcribed expressions must agree with the stated shape.
		for mach := range Table3 {
			e, _ := Expression(mach, op)
			if e.Startup.Kind != shape {
				t.Errorf("%s/%s transcribed with %v startup, paper says %v",
					mach, op, e.Startup.Kind, shape)
			}
		}
	}
}

func TestAggregatedMultiplier(t *testing.T) {
	// §3: f(m,p) = m(p−1) for broadcast/gather/scatter/reduce/scan,
	// m·p(p−1) for total exchange.
	if got := AggregatedMultiplier(machine.OpBroadcast, 64); got != 63 {
		t.Fatalf("broadcast multiplier = %v", got)
	}
	if got := AggregatedMultiplier(machine.OpAlltoall, 64); got != 64*63 {
		t.Fatalf("alltoall multiplier = %v", got)
	}
	if got := AggregatedMultiplier(machine.OpBarrier, 64); got != 0 {
		t.Fatalf("barrier moves no payload, got %v", got)
	}
}

func TestMessageRangeCompletesIn5msTo675ms(t *testing.T) {
	// Abstract: "various collective operations with 64 KBytes per
	// message over 64 nodes … can be completed in the time range
	// (5.12 ms, 675 ms)".
	lo, hi := math.Inf(1), math.Inf(-1)
	for mach := range Table3 {
		for _, op := range machine.Ops {
			if op == machine.OpBarrier {
				continue
			}
			e, _ := Expression(mach, op)
			v := e.Eval(65536, 64)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if lo < 4000 || lo > 7000 {
		t.Errorf("fastest 64KB/64-node op = %.0f µs, paper says ≈5.12 ms", lo)
	}
	// The abstract's 675 ms upper end is a measured extreme that the
	// fitted expressions understate (the largest fit value is the SP2
	// total exchange at ≈347 ms, vs its measured 317 ms in §5 — the
	// measured 675 ms point has no corresponding fit). Check the fits
	// put the slowest operation in the hundreds of milliseconds.
	if hi < 250_000 || hi > 800_000 {
		t.Errorf("slowest 64KB/64-node op = %.0f µs, want hundreds of ms", hi)
	}
}

func TestSweepsMatchSection2(t *testing.T) {
	if got := MachineSizes("T3D"); got[len(got)-1] != 64 {
		t.Fatalf("T3D sizes end at %d, the study had 64", got[len(got)-1])
	}
	if got := MachineSizes("SP2"); got[len(got)-1] != 128 {
		t.Fatalf("SP2 sizes end at %d", got[len(got)-1])
	}
	ms := MessageLengths()
	if ms[0] != 4 || ms[len(ms)-1] != 65536 {
		t.Fatalf("message sweep %v", ms)
	}
}

func TestSpotChecksCovered(t *testing.T) {
	if len(Reported) < 10 {
		t.Fatalf("only %d reported spot values transcribed", len(Reported))
	}
}

func TestScanParagonBeatsT3DLatencyAt16Plus(t *testing.T) {
	// §9: T3D trails the Paragon in scan on 16 nodes or more.
	t3d, _ := Expression("T3D", machine.OpScan)
	par, _ := Expression("Paragon", machine.OpScan)
	for _, p := range []int{16, 32, 64} {
		if par.EvalStartup(p) >= t3d.EvalStartup(p) {
			t.Errorf("Paragon scan startup should beat T3D at p=%d", p)
		}
	}
}

// TestHopLatenciesMatchPaper checks every preset's per-hop latency
// against §4's.
func TestHopLatenciesMatchPaper(t *testing.T) {
	if len(HopLatenciesNs) != len(machine.All()) {
		t.Fatalf("§4 quotes %d hop latencies for %d machines", len(HopLatenciesNs), len(machine.All()))
	}
	for _, m := range machine.All() {
		want, ok := HopLatenciesNs[m.Name()]
		if got := m.Params().Net.HopLatency; !ok || got != sim.Duration(want) {
			t.Errorf("%s hop latency = %v, want %d ns", m.Name(), got, want)
		}
	}
}

// TestLinkBandwidthsMatchPaper checks every preset's raw link bandwidth
// against §5's.
func TestLinkBandwidthsMatchPaper(t *testing.T) {
	if len(NetworkBandwidthsMBs) != len(machine.All()) {
		t.Fatalf("§5 quotes %d link bandwidths for %d machines", len(NetworkBandwidthsMBs), len(machine.All()))
	}
	for _, m := range machine.All() {
		want, ok := NetworkBandwidthsMBs[m.Name()]
		if got := m.Params().Net.LinkBandwidthMBs; !ok || got != want {
			t.Errorf("%s link bandwidth = %v, want %v MB/s", m.Name(), got, want)
		}
	}
}
