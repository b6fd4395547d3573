package machine_test

// Calibration regression: every (op, p, m) probe point must stay within
// a bounded factor of the paper's Table 3 prediction. This is the
// guardrail for the constants in presets.go — if a change to the
// simulator or the algorithms moves the calibration, this test names the
// point that drifted. Tolerances are deliberately loose (the shape tests
// in internal/paper are the real acceptance criteria); documented
// deviations get explicit wider bounds.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/paper"
)

var calCfg = measure.Config{Warmup: 1, K: 2, Reps: 1, Seed: 1}

// loose returns the tolerance factor for a probe point. The default is
// 1.6×; points covered by EXPERIMENTS.md "known deviations" get more.
func loose(mach string, op machine.Op, m int) float64 {
	switch {
	case op == machine.OpScatter && m >= 1024:
		return 2.4 // Paragon's unphysical fit; T3D's constant per-byte term
	case op == machine.OpScan && m >= 1024:
		return 2.2 // log-p vs the paper's linear-p per-byte shape
	case op == machine.OpBroadcast && m >= 1024 && m < 65536:
		return 2.0 // mid-range: eager/rendezvous transition
	case op == machine.OpReduce && m == 1024:
		return 1.8
	case op == machine.OpBarrier:
		return 1.6
	default:
		return 1.6
	}
}

func TestCalibrationWithinBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe is slow")
	}
	type probe struct{ p, m int }
	probes := []probe{{8, 4}, {32, 4}, {64, 4}, {32, 1024}, {32, 65536}, {64, 65536}}
	var worst float64 = 1
	var worstName string
	for _, mach := range machine.All() {
		for _, op := range machine.Ops {
			pe, _ := paper.Expression(mach.Name(), op)
			pts := probes
			if op == machine.OpBarrier {
				pts = []probe{{8, 0}, {32, 0}, {64, 0}}
			}
			for _, pb := range pts {
				got := measure.MeasureOp(mach, op, pb.p, pb.m, calCfg).Micros
				want := pe.Eval(pb.m, pb.p)
				if want <= 0 {
					continue // fits go non-physical at extremes
				}
				ratio := got / want
				tol := loose(mach.Name(), op, pb.m)
				if ratio > tol || ratio < 1/tol {
					t.Errorf("%s/%s p=%d m=%d: measured %.1f µs vs paper %.1f (ratio %.2f, tol %.1f)",
						mach.Name(), op, pb.p, pb.m, got, want, ratio, tol)
				}
				dev := ratio
				if dev < 1 {
					dev = 1 / dev
				}
				if dev > worst {
					worst, worstName = dev, fmt.Sprintf("%s/%s p=%d m=%d", mach.Name(), op, pb.p, pb.m)
				}
			}
		}
	}
	t.Logf("worst calibration deviation: %.2fx at %s", worst, worstName)
}

func TestCalibrationGeometricMeanNearOne(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe is slow")
	}
	// The pointwise test above allows each point a factor; the aggregate
	// must be far tighter — systematic bias would show here.
	var logSum float64
	var n int
	for _, mach := range machine.All() {
		for _, op := range machine.Ops {
			pe, _ := paper.Expression(mach.Name(), op)
			m := 1024
			if op == machine.OpBarrier {
				m = 0
			}
			got := measure.MeasureOp(mach, op, 32, m, calCfg).Micros
			want := pe.Eval(m, 32)
			if want <= 0 {
				continue
			}
			logSum += math.Log(got / want)
			n++
		}
	}
	geo := math.Exp(logSum / float64(n))
	if geo < 0.8 || geo > 1.25 {
		t.Fatalf("geometric-mean calibration ratio %.2f over %d points, want ≈1", geo, n)
	}
	t.Logf("geometric-mean calibration ratio: %.3f over %d points", geo, n)
}
