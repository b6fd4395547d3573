package mpi_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/coll"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
)

// once is one call of the measured collective, as measure's program
// makes it: only the root supplies a broadcast's message and a
// scatter's blocks.
func once(c *mpi.Comm, op machine.Op, msg []byte, blocks [][]byte) {
	root := c.Rank() == 0
	switch op {
	case machine.OpBarrier:
		c.Barrier()
	case machine.OpBroadcast:
		if !root {
			msg = nil
		}
		c.Bcast(0, msg)
	case machine.OpGather:
		c.Gather(0, msg)
	case machine.OpScatter:
		if !root {
			blocks = nil
		}
		c.Scatter(0, blocks)
	case machine.OpAlltoall:
		c.Alltoall(blocks)
	case machine.OpReduce:
		c.Reduce(0, msg, mpi.Sum, mpi.Float)
	case machine.OpScan:
		c.Scan(msg, mpi.Sum, mpi.Float)
	case machine.OpAllgather:
		c.Allgather(msg)
	case machine.OpAllreduce:
		c.Allreduce(msg, mpi.Sum, mpi.Float)
	default:
		panic("unknown operation " + string(op))
	}
}

// goroutineSample measures like measure.MeasureOpCtx with goroutine
// ranks instead of a replay: every execution runs the paper's §2 rank
// body with opaque payloads — warm-up calls, a barrier, K timed calls
// between two readings of the rank's own clock — and the per-rank
// means are max-reduced host-side. It is the oracle the replay must
// reproduce.
func goroutineSample(t *testing.T, mach *machine.Machine, op machine.Op, p, m int, cfg measure.Config, algs mpi.Algorithms) measure.Sample {
	t.Helper()
	msg := coll.ZeroBytes(m)
	blocks := make([][]byte, p)
	for i := range blocks {
		blocks[i] = msg
	}
	locals := make([]float64, p)
	cl := machine.NewCluster(mach, p, cfg.Seed)
	reps := make([]float64, 0, cfg.Reps)
	var minSum, meanSum float64
	for rep := 0; rep < cfg.Reps; rep++ {
		if rep > 0 {
			cl.Reset(cfg.Seed + int64(rep))
		}
		err := mpi.RunOpaque(cl, algs, func(c *mpi.Comm) {
			for w := 0; w < cfg.Warmup; w++ {
				once(c, op, msg, blocks)
			}
			c.Barrier()
			start := c.Wtime()
			for i := 0; i < cfg.K; i++ {
				once(c, op, msg, blocks)
			}
			end := c.Wtime()
			locals[c.Rank()] = (end.Sub(start) / sim.Duration(cfg.K)).Micros()
		})
		if err != nil {
			t.Fatal(err)
		}
		s := stats.Summarize(locals)
		reps = append(reps, s.Max)
		minSum += s.Min
		meanSum += s.Mean
	}
	agg := stats.Summarize(reps)
	return measure.Sample{
		Machine: mach.Name(), Op: op, P: p, M: m,
		Micros: agg.Mean, MinMicros: agg.Min, MaxMicros: agg.Max,
		RankMin: minSum / float64(cfg.Reps), RankMean: meanSum / float64(cfg.Reps),
	}
}

// TestReplayMatchesGoroutineEngine: a measurement replayed from its
// recorded scripts (measure.MeasureOpCtx) equals, bit for bit, the same
// §2 procedure run by goroutine ranks, and costs the kernel the same
// number of events. It covers every machine, operation and registered
// algorithm (plus the T3D's hardware barrier), at sizes that cross
// power-of-two and other code paths and at lengths either side of the
// eager limit, under the Fast and Paper procedures and with no warm-up.
// Under the race detector it covers fewer sizes and lengths.
func TestReplayMatchesGoroutineEngine(t *testing.T) {
	noWarmup := measure.Fast()
	noWarmup.Warmup, noWarmup.Seed = 0, 3
	configs := []struct {
		name string
		cfg  measure.Config
	}{
		{"fast", measure.Fast()},
		{"paper", measure.Paper()},
		{"no-warmup", noWarmup},
	}
	sizes := []int{2, 3, 5, 8, 32}
	lengths := func(mach *machine.Machine) []int {
		return []int{4, mach.EagerLimit(), mach.EagerLimit() + 1, 65536}
	}
	if raceEnabled {
		sizes = []int{3, 8}
		lengths = func(mach *machine.Machine) []int { return []int{4, mach.EagerLimit() + 1} }
	}
	sim.EnableCounters(true)
	defer sim.EnableCounters(false)
	for _, mach := range machine.All() {
		for _, opName := range coll.RegisteredOps() {
			op := machine.Op(opName)
			names := coll.Algorithms(opName)
			if op == machine.OpBarrier && mach.HardwareBarrier() {
				names = append(names, coll.AlgHardware)
			}
			for _, alg := range names {
				algs := mpi.DefaultAlgorithms(mach).With(op, alg)
				for _, p := range sizes {
					for _, m := range lengths(mach) {
						for _, c := range configs {
							name := fmt.Sprintf("%s/%s/%s/p=%d/m=%d/%s", mach.Name(), op, alg, p, m, c.name)
							e0 := sim.KernelEvents()
							want := goroutineSample(t, mach, op, p, m, c.cfg, algs)
							e1 := sim.KernelEvents()
							got, err := measure.MeasureOpCtx(context.Background(), mach, op, p, m, c.cfg, algs)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if got != want {
								t.Errorf("%s: replay measured\n%+v\nthe goroutine engine\n%+v", name, got, want)
							}
							if ge, re := e1-e0, sim.KernelEvents()-e1; ge != re {
								t.Errorf("%s: replay cost %d kernel events, the goroutine engine %d", name, re, ge)
							}
						}
					}
				}
			}
		}
	}
}
