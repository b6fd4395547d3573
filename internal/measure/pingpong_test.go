package measure

import (
	"testing"

	"repro/internal/fit"
	"repro/internal/machine"
)

func TestPingPongGrowsWithSize(t *testing.T) {
	cfg := Fast()
	small := PingPong(machine.T3D(), 4, cfg)
	big := PingPong(machine.T3D(), 65536, cfg)
	if small <= 0 || big <= small {
		t.Fatalf("pingpong: %v then %v", small, big)
	}
}

func TestPingPongLatencyOrdering(t *testing.T) {
	// Zero-payload one-way latency: T3D fastest, Paragon slowest —
	// the §4 software-overhead ordering.
	cfg := Fast()
	t3d := PingPong(machine.T3D(), 4, cfg)
	sp2 := PingPong(machine.SP2(), 4, cfg)
	par := PingPong(machine.Paragon(), 4, cfg)
	if !(t3d < sp2 && t3d < par) {
		t.Fatalf("latency ordering broken: T3D %.1f, SP2 %.1f, Paragon %.1f", t3d, sp2, par)
	}
}

func TestHockneyFitReasonable(t *testing.T) {
	cfg := Fast()
	h := HockneyFit(machine.T3D(), cfg)
	if h.T0Micros <= 0 || h.T0Micros > 200 {
		t.Fatalf("T3D t0 = %.1f µs", h.T0Micros)
	}
	// Effective p2p bandwidth is the software-limited ≈27 MB/s, far
	// below the 300 MB/s link rate — the gap the paper attributes to
	// messaging overhead.
	if h.RInfMBs < 10 || h.RInfMBs > 80 {
		t.Fatalf("T3D r∞ = %.1f MB/s", h.RInfMBs)
	}
	if h.NHalf() <= 0 {
		t.Fatal("n½ must be positive")
	}
}

func TestHockneyModelAlgebra(t *testing.T) {
	h := fit.Hockney{T0Micros: 50, RInfMBs: 40}
	if got := h.Eval(4000); got != 150 {
		t.Fatalf("Eval = %v", got)
	}
	if got := h.NHalf(); got != 2000 {
		t.Fatalf("n½ = %v", got)
	}
	// At n½ the achieved bandwidth is half of r∞.
	if bw := h.Bandwidth(2000); bw < 19.9 || bw > 20.1 {
		t.Fatalf("bandwidth at n½ = %v, want 20", bw)
	}
}

func TestFitHockneyRecoversSynthetic(t *testing.T) {
	want := fit.Hockney{T0Micros: 33, RInfMBs: 27}
	lengths := []int{4, 64, 1024, 16384, 65536}
	times := make([]float64, len(lengths))
	for i, m := range lengths {
		times[i] = want.Eval(m)
	}
	got := fit.FitHockney(lengths, times)
	if d := got.T0Micros - want.T0Micros; d > 0.01 || d < -0.01 {
		t.Fatalf("t0 = %v", got.T0Micros)
	}
	if d := got.RInfMBs - want.RInfMBs; d > 0.01 || d < -0.01 {
		t.Fatalf("r∞ = %v", got.RInfMBs)
	}
}
