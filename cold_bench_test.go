package repro_test

import (
	"testing"

	"repro/internal/coll"
	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// --- Cold-path benchmarks ---------------------------------------------
// Every warm estimate is gated on a cold pass somewhere: the sim kernel
// behind it, the full sim sweep feeding the caches, and the calibration
// sweeps feeding the Calibrated backend. These quantify all three; BENCH.md
// tracks the numbers per commit.

// BenchmarkKernelEvents measures the raw event engine: timer callbacks
// (one self-rescheduling closure) and process wakeups (sleep/wake cycles
// through the scheduler), the two event flavors every simulation is made
// of.
func BenchmarkKernelEvents(b *testing.B) {
	b.Run("callback", func(b *testing.B) {
		k := sim.New(1)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				k.After(1, tick)
			}
		}
		k.After(1, tick)
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("proc-wakeup", func(b *testing.B) {
		// Four interleaved sleepers: every wakeup reschedules through the
		// event queue and (in the contended case) switches processes.
		k := sim.New(1)
		per := b.N/4 + 1
		for i := 0; i < 4; i++ {
			k.Go("", func(p *sim.Proc) {
				for j := 0; j < per; j++ {
					p.Sleep(1)
				}
			})
		}
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// coldSpec is cmd/sweep's default grid under its default methodology:
// the 788-scenario surface the ISSUE's cold-path target is measured on.
func coldSpec(tb testing.TB) []sweep.Scenario {
	tb.Helper()
	spec := sweep.Spec{
		Algorithms: sweep.AllAlgorithms(machine.Ops),
		Sizes:      []int{8, 32},
		Config:     measure.Fast(),
	}
	scns, err := spec.Expand()
	if err != nil {
		tb.Fatal(err)
	}
	return scns
}

// BenchmarkColdSweep runs the default 788-scenario grid through the sim
// backend with no cache — the cold pass every fresh deployment (or
// preset edit) pays before warm serving takes over. Run with
// -benchtime 1x for a single cold pass.
func BenchmarkColdSweep(b *testing.B) {
	scns := coldSpec(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(&sweep.Runner{Backend: estimate.Sim{Memo: estimate.NewSampleMemo()}}).Run(scns)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(scns))*float64(b.N)/secs, "scenarios/s")
	}
}

// calibrationTriples enumerates every (machine, op, algorithm variant)
// triple of the default grid, the cold-calibration workload of the
// Calibrated backend.
func calibrationTriples() (out []struct {
	mach *machine.Machine
	op   machine.Op
	alg  string
}) {
	for _, mach := range machine.All() {
		for _, op := range machine.Ops {
			algs := coll.Algorithms(string(op))
			if op == machine.OpBarrier && mach.HardwareBarrier() {
				algs = append(append([]string(nil), algs...), coll.AlgHardware)
			}
			for _, alg := range algs {
				out = append(out, struct {
					mach *machine.Machine
					op   machine.Op
					alg  string
				}{mach, op, alg})
			}
		}
	}
	return out
}

// BenchmarkCalibrationCold calibrates every triple of the default grid
// from scratch — the measure-then-fit cost the expression cache
// amortizes away in real use. "sequential" fits triple by triple (the
// pre-pool shape) and "pooled" runs the Precalibrate worker pool. Run
// with -benchtime 1x for one full cold calibration per variant.
func BenchmarkCalibrationCold(b *testing.B) {
	raw := calibrationTriples()
	triples := make([]estimate.Triple, len(raw))
	for i, tr := range raw {
		triples[i] = estimate.Triple{Machine: tr.mach, Op: tr.op, Alg: tr.alg}
	}
	fresh := func() *estimate.Calibrated {
		return &estimate.Calibrated{
			Config: measure.Fast(), Sizes: []int{8, 32},
			Memo: estimate.NewSampleMemo(),
		}
	}
	report := func(b *testing.B) {
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(len(triples))*float64(b.N)/secs, "triples/s")
		}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := fresh()
			for _, tr := range triples {
				c.Expression(tr.Machine, tr.Op, tr.Alg)
			}
		}
		report(b)
	})
	b.Run("pooled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh().Precalibrate(triples, 0)
		}
		report(b)
	})
}
