// Package measure implements the paper's benchmark methodology (§2) over
// the simulator:
//
//	barrier synchronization
//	get start-time
//	for (i = 0; i < k; i++)
//	        the-collective-routine-being-measured
//	get end-time
//	local-time = (end-time − start-time)/k
//	communication-time = maximum-reduce(local-time)
//
// with the first (warm-up) iterations discarded, per-rank times read
// from each node's own unsynchronized clock, and the whole program
// executed several times per configuration. The paper focuses on the
// maximal time "because … it reflects the condition that all processes
// involved in the machine have finished the operation"; Sample.Micros
// carries that headline number.
//
// The procedure is recorded once per measurement and replayed per
// execution: each rank's steps of one collective call and of the
// barrier are recorded with no simulated time (mpi.Record), and every
// execution replays the plan — the call Warmup times, the barrier, a
// clock mark, the call K times, a mark — as kernel events (mpi.Player).
// No rank code runs during an execution, and the numbers are those the
// rank code itself would produce.
package measure

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/coll"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/paper"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config controls the measurement procedure.
type Config struct {
	Warmup int   // discarded leading iterations (paper: 2)
	K      int   // timed iterations per execution (paper: 20)
	Reps   int   // independent program executions (paper: 5)
	Seed   int64 // base RNG seed; rep r uses Seed+r
}

// Paper returns the paper-faithful configuration.
func Paper() Config { return Config{Warmup: 2, K: 20, Reps: 5, Seed: 1} }

// Fast returns a cheaper configuration for tests and wide sweeps; the
// simulator's noise model is mild, so fewer iterations lose little.
func Fast() Config { return Config{Warmup: 1, K: 3, Reps: 2, Seed: 1} }

// Sample is the measured time of one (machine, op, p, m) configuration.
type Sample struct {
	Machine string
	Op      machine.Op
	P       int
	M       int
	// Micros is the headline time in µs: the mean over executions of
	// the per-execution max-reduced per-rank averages.
	Micros float64
	// MinMicros/MaxMicros are the extreme per-execution values.
	MinMicros, MaxMicros float64
	// RankMin/RankMean are the paper's other two collected numbers
	// (§2: "the minimal time, the maximal time, and the mean time from
	// all processes are collected"), averaged over executions.
	RankMin, RankMean float64
}

// MeasureOp measures one collective on p nodes of m with msgLen bytes
// per pair, following the paper's procedure, using the machine's vendor
// algorithm table.
func MeasureOp(mach *machine.Machine, op machine.Op, p, msgLen int, cfg Config) Sample {
	return MeasureOpWith(mach, op, p, msgLen, cfg, mpi.DefaultAlgorithms(mach))
}

// MeasureOpWith is MeasureOp with an explicit algorithm table, used by
// the sweep engine to compare collective algorithm variants on the same
// machine. It panics on a failed measurement, which with a context that
// never cancels is a bug in the model.
func MeasureOpWith(mach *machine.Machine, op machine.Op, p, msgLen int, cfg Config, algs mpi.Algorithms) Sample {
	s, err := MeasureOpCtx(context.Background(), mach, op, p, msgLen, cfg, algs)
	if err != nil {
		panic(err)
	}
	return s
}

// MeasureOpCtx is MeasureOpWith under a cancellable context. It records
// each rank's steps of one collective call and one barrier once
// (mpi.Record), then replays the §2 procedure from them for every
// execution (mpi.Player): the call Warmup times, the barrier, a clock
// mark, the call K times, a mark. One cluster serves all executions
// (reset between them), and no rank code runs during a replay. The
// simulation kernel polls ctx at event-loop drive boundaries
// (sim.Kernel.SetInterrupt), so a cancellation stops the replay
// promptly and returns an error wrapping ctx's. A context that can
// never cancel (context.Background()) installs no probe and measures
// byte-identically. Any other failure — a recording or replay that
// panics or deadlocks — is a bug in the model, returned as an error
// naming the scenario.
func MeasureOpCtx(ctx context.Context, mach *machine.Machine, op machine.Op, p, msgLen int, cfg Config, algs mpi.Algorithms) (Sample, error) {
	if cfg.K < 1 || cfg.Reps < 1 {
		panic("measure: need K ≥ 1 and Reps ≥ 1")
	}
	if err := ctx.Err(); err != nil {
		return Sample{}, err
	}
	fail := func(err error) (Sample, error) {
		if errors.Is(err, sim.ErrInterrupted) {
			return Sample{}, err
		}
		return Sample{}, fmt.Errorf("measure: %s %s p=%d m=%d: %w", mach.Name(), op, p, msgLen, err)
	}
	prog := newProgram(op, p, msgLen)
	scripts, err := mpi.Record(mach, p, algs, prog.once, (*mpi.Comm).Barrier)
	if err != nil {
		return fail(err)
	}
	call := &scripts[0]
	plan := []mpi.Phase{
		{Script: call, Times: cfg.Warmup},
		{Script: &scripts[1], Times: 1},
		{}, // start-time
		{Script: call, Times: cfg.K},
		{}, // end-time
	}
	cl := machine.NewCluster(mach, p, cfg.Seed)
	if ctx.Done() != nil {
		cl.Kernel().SetInterrupt(ctx.Err)
	}
	player := mpi.NewPlayer(cl, plan)
	micros := make([]float64, p)
	reps := make([]float64, 0, cfg.Reps)
	var minSum, meanSum float64
	for rep := 0; rep < cfg.Reps; rep++ {
		if rep > 0 {
			if err := ctx.Err(); err != nil {
				return Sample{}, err
			}
			cl.Reset(cfg.Seed + int64(rep))
		}
		if err := player.Play(); err != nil {
			return fail(err)
		}
		// local-time = (end-time − start-time)/k, read on each rank's
		// own clock; communication-time = maximum-reduce(local-time),
		// collected host-side so the measurement itself does not
		// perturb timing (the paper's in-band MPI_Reduce(MPI_MAX) is
		// timing-equivalent because it happens after end-time is read).
		for r := range micros {
			marks := player.Marks(r)
			micros[r] = (marks[1].Sub(marks[0]) / sim.Duration(cfg.K)).Micros()
		}
		s := stats.Summarize(micros)
		reps = append(reps, s.Max)
		minSum += s.Min
		meanSum += s.Mean
	}
	agg := stats.Summarize(reps)
	return Sample{
		Machine: mach.Name(), Op: op, P: p, M: msgLen,
		Micros: agg.Mean, MinMicros: agg.Min, MaxMicros: agg.Max,
		RankMin: minSum / float64(cfg.Reps), RankMean: meanSum / float64(cfg.Reps),
	}, nil
}

// program is one measurement's collective call, recorded once on every
// rank. Its buffers come from the shared zero arena (a recording is
// opaque-payload) and are only read, so the ranks share them.
type program struct {
	op     machine.Op
	msg    []byte   // one rank's message of the paper's m bytes
	blocks [][]byte // p such messages, for scatter and all-to-all
}

func newProgram(op machine.Op, p, msgLen int) *program {
	pr := &program{op: op, msg: coll.ZeroBytes(msgLen)}
	if op == machine.OpScatter || op == machine.OpAlltoall {
		pr.blocks = make([][]byte, p)
		for i := range pr.blocks {
			pr.blocks[i] = pr.msg
		}
	}
	return pr
}

// once executes one instance of the collective with the per-pair
// message length the paper's m denotes. Only the root supplies a
// broadcast's message and a scatter's blocks.
func (pr *program) once(c *mpi.Comm) {
	root := c.Rank() == 0
	switch pr.op {
	case machine.OpBarrier:
		c.Barrier()
	case machine.OpBroadcast:
		var msg []byte
		if root {
			msg = pr.msg
		}
		c.Bcast(0, msg)
	case machine.OpGather:
		c.Gather(0, pr.msg)
	case machine.OpScatter:
		var blocks [][]byte
		if root {
			blocks = pr.blocks
		}
		c.Scatter(0, blocks)
	case machine.OpAlltoall:
		c.Alltoall(pr.blocks)
	case machine.OpReduce:
		c.Reduce(0, pr.msg, mpi.Sum, mpi.Float)
	case machine.OpScan:
		c.Scan(pr.msg, mpi.Sum, mpi.Float)
	case machine.OpAllgather:
		c.Allgather(pr.msg)
	case machine.OpAllreduce:
		c.Allreduce(pr.msg, mpi.Sum, mpi.Float)
	default:
		panic("measure: unknown operation " + string(pr.op))
	}
}

// StartupLatency estimates T0(p) the paper's way: the timing of the
// shortest message (m = 4 B; the barrier uses none).
func StartupLatency(mach *machine.Machine, op machine.Op, p int, cfg Config) float64 {
	m := 4
	if op == machine.OpBarrier {
		m = 0
	}
	return MeasureOp(mach, op, p, m, cfg).Micros
}

// PaperLengths returns the study's message-length sweep (§2).
func PaperLengths() []int { return paper.MessageLengths() }
