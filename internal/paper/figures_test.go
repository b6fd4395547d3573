package paper_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/estimate"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/paper"
)

// These tests check the per-figure claims of the evaluation (Figs. 1,
// 2, 4, 5 and Table 3) on small sweeps, measured the way
// cmd/experiments measures the full grid.

// sizesUpTo returns the paper's machine sizes for name capped at max.
func sizesUpTo(name string, max int) []int {
	var out []int
	for _, p := range paper.MachineSizes(name) {
		if p <= max {
			out = append(out, p)
		}
	}
	return out
}

func TestFig1StartupNonDecreasingInP(t *testing.T) {
	// Startup latency must be monotonically non-decreasing in p
	// (allowing jitter of a few percent).
	for _, op := range paper.SixOps {
		for _, m := range machine.All() {
			prev := 0.0
			for _, p := range sizesUpTo(m.Name(), 16) {
				v := measure.StartupLatency(m, op, p, measure.Fast())
				if v < prev*0.9 {
					t.Errorf("%s/%s: latency fell from %v to %v at p=%d", m.Name(), op, prev, v, p)
				}
				prev = v
			}
		}
	}
}

func TestFig2TimeGrowsWithMessageLength(t *testing.T) {
	for _, op := range paper.SixOps {
		for _, m := range machine.All() {
			short := measure.MeasureOp(m, op, 32, 4, measure.Fast()).Micros
			long := measure.MeasureOp(m, op, 32, 16384, measure.Fast()).Micros
			if long <= short {
				t.Errorf("%s/%s p=32: no growth across the m sweep (%v → %v µs)", m.Name(), op, short, long)
			}
		}
	}
}

func TestFig4BreakdownConsistent(t *testing.T) {
	for _, op := range paper.SixOps {
		for _, m := range machine.All() {
			startup := measure.StartupLatency(m, op, 32, measure.Fast())
			total := measure.MeasureOp(m, op, 32, 1024, measure.Fast()).Micros
			if startup <= 0 || total <= 0 {
				t.Errorf("%s/%s: nonpositive bar", m.Name(), op)
			}
			if total < startup*0.8 {
				t.Errorf("%s/%s: total %v below startup %v", m.Name(), op, total, startup)
			}
		}
	}
}

func TestFig5BandwidthsPositiveAndGrowing(t *testing.T) {
	cfg := measure.Config{Warmup: 1, K: 2, Reps: 1, Seed: 1}
	lengths := []int{4, 4096, 65536}
	for _, op := range paper.SixOps {
		for _, m := range machine.All() {
			bw := map[int]float64{}
			for _, p := range paper.Fig5Sizes {
				if p > m.MaxNodes() {
					continue
				}
				bw[p] = bandwidth(m.Name(), op, p, lengths, cfg)
				if bw[p] <= 0 {
					t.Errorf("%s/%s p=%d: bandwidth %v", m.Name(), op, p, bw[p])
				}
			}
			// §8: aggregated bandwidth increases monotonically with p
			// for the total exchange (f grows as p²).
			if op == machine.OpAlltoall && bw[32] <= bw[16] {
				t.Errorf("%s alltoall R∞ did not grow: %v", m.Name(), bw)
			}
		}
	}
}

func TestT3DAlltoallBandwidthReasonable(t *testing.T) {
	// At p=16 the T3D total exchange should deliver hundreds of MB/s
	// (the paper's Fig. 5b scale), nowhere near the 4.8 GB/s raw figure.
	bw := bandwidth("T3D", machine.OpAlltoall, 16, []int{4, 16384, 65536}, measure.Fast())
	if bw < 100 || bw > 2000 {
		t.Fatalf("T3D alltoall R∞(16) = %.0f MB/s, want O(100s)", bw)
	}
}

// table3Refit is one Table 3 cell refitted from a small sweep.
type table3Refit struct {
	name string
	op   machine.Op
	expr fit.Expression
}

// table3Refits refits every (machine, operation) Table 3 expression the
// way cmd/experiments does, over p <= 64. It is computed once and
// shared by the Table 3 tests.
var table3Refits = sync.OnceValue(func() []table3Refit {
	cfg := measure.Config{Warmup: 1, K: 2, Reps: 1, Seed: 1}
	var out []table3Refit
	for _, m := range machine.All() {
		for _, op := range machine.Ops {
			lengths := []int{4, 16384, 65536}
			if op == machine.OpBarrier {
				lengths = []int{0}
			}
			d := estimate.BuildDataset(m, op, mpi.DefaultAlgorithms(m), sizesUpTo(m.Name(), 64), lengths, cfg)
			expr := fit.TwoStage(d, paper.StartupShape(op), paper.PerByteShape(m.Name(), op))
			out = append(out, table3Refit{m.Name(), op, expr})
		}
	}
	return out
})

func TestTable3ShapesMatchPaper(t *testing.T) {
	// The headline structural claim (§8): startup is linear in p for
	// gather/scatter/alltoall and logarithmic for the tree collectives,
	// on every machine. Our refits must select the same shapes.
	for _, r := range table3Refits() {
		if r.name == "T3D" && r.op == machine.OpBarrier {
			continue // hardware barrier: nearly flat, shape is degenerate
		}
		if want := paper.StartupShape(r.op); r.expr.Startup.Kind != want {
			t.Errorf("%s/%s startup fitted %v, paper says %v (expr %s)",
				r.name, r.op, r.expr.Startup.Kind, want, r.expr)
		}
	}
}

func TestFittedExpressionsEvaluable(t *testing.T) {
	// Every refitted expression must evaluate to a positive, finite time.
	for _, r := range table3Refits() {
		if v := r.expr.Eval(1024, 8); v <= 0 || !(math.Abs(v) < 1e18) { // also rejects NaN
			t.Errorf("%s/%s: Eval(1024,8) = %v from %s", r.name, r.op, v, r.expr)
		}
	}
}
