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
// machine. One kernel+cluster serves all executions (reset between
// repetitions), and the benchmark runs with opaque payloads: the
// harness's buffers are all zeros and its data is discarded, so the
// collectives skip payload byte movement while simulating identical
// timings.
func MeasureOpWith(mach *machine.Machine, op machine.Op, p, msgLen int, cfg Config, algs mpi.Algorithms) Sample {
	s, err := MeasureOpCtx(context.Background(), mach, op, p, msgLen, cfg, algs)
	if err != nil {
		// The background context never cancels, and every other failure
		// already panics inside runOnce.
		panic(fmt.Sprintf("measure: %s %s p=%d m=%d: %v", mach.Name(), op, p, msgLen, err))
	}
	return s
}

// MeasureOpCtx is MeasureOpWith under a cancellable context: the
// simulation kernel polls ctx at event-loop drive boundaries
// (sim.Kernel.SetInterrupt) and a cancellation unwinds the run's rank
// processes cleanly — no goroutine leaks — returning ctx's error. A
// context that can never cancel (context.Background()) installs no
// probe and measures byte-identically to MeasureOpWith.
func MeasureOpCtx(ctx context.Context, mach *machine.Machine, op machine.Op, p, msgLen int, cfg Config, algs mpi.Algorithms) (Sample, error) {
	if cfg.K < 1 || cfg.Reps < 1 {
		panic("measure: need K ≥ 1 and Reps ≥ 1")
	}
	if err := ctx.Err(); err != nil {
		return Sample{}, err
	}
	cl := machine.NewCluster(mach, p, cfg.Seed)
	if ctx.Done() != nil {
		cl.Kernel().SetInterrupt(ctx.Err)
	}
	prog := newProgram(op, p, msgLen, cfg)
	opt := mpi.RunOptions{Algorithms: algs, OpaquePayloads: true}
	reps := make([]float64, 0, cfg.Reps)
	var minSum, meanSum float64
	for rep := 0; rep < cfg.Reps; rep++ {
		if rep > 0 {
			if err := ctx.Err(); err != nil {
				return Sample{}, err
			}
			cl.Reset(cfg.Seed + int64(rep))
		}
		r, err := prog.runOnce(cl, opt)
		if err != nil {
			return Sample{}, err
		}
		reps = append(reps, r.Max)
		minSum += r.Min
		meanSum += r.Mean
	}
	agg := stats.Summarize(reps)
	return Sample{
		Machine: mach.Name(), Op: op, P: p, M: msgLen,
		Micros: agg.Mean, MinMicros: agg.Min, MaxMicros: agg.Max,
		RankMin: minSum / float64(cfg.Reps), RankMean: meanSum / float64(cfg.Reps),
	}, nil
}

// program is one measurement's benchmark program, built once and run
// by every rank of every execution. Its buffers come from the shared
// zero arena (the run is opaque-payload) and are only read, so the
// ranks share them and an execution allocates no payload or closure.
type program struct {
	op     machine.Op
	cfg    Config
	msg    []byte         // one rank's message of the paper's m bytes
	blocks [][]byte       // p such messages, for scatter and all-to-all
	locals []sim.Duration // each rank's mean time per timed iteration
	body   func(c *mpi.Comm)
}

func newProgram(op machine.Op, p, msgLen int, cfg Config) *program {
	pr := &program{op: op, cfg: cfg, msg: coll.ZeroBytes(msgLen), locals: make([]sim.Duration, p)}
	if op == machine.OpScatter || op == machine.OpAlltoall {
		pr.blocks = make([][]byte, p)
		for i := range pr.blocks {
			pr.blocks[i] = pr.msg
		}
	}
	pr.body = pr.rank
	return pr
}

// runOnce executes the program once on cl and returns the per-rank
// summary (the paper's min/max/mean over all processes) in µs. An
// interrupted drive returns the cancellation cause; any other failure
// (rank panic, deadlock) is a bug in the model and still panics.
func (pr *program) runOnce(cl *machine.Cluster, opt mpi.RunOptions) (stats.Summary, error) {
	err := mpi.RunWith(cl, opt, pr.body)
	if errors.Is(err, sim.ErrInterrupted) {
		return stats.Summary{}, err
	}
	if err != nil {
		panic(fmt.Sprintf("measure: %s %s p=%d m=%d: %v",
			cl.Machine().Name(), pr.op, cl.Size(), len(pr.msg), err))
	}
	// communication-time = maximum-reduce(local-time). Collected
	// host-side so the measurement itself does not perturb timing; the
	// paper's in-band MPI_Reduce(MPI_MAX) is timing-equivalent because
	// it happens after end-time is read.
	micros := make([]float64, len(pr.locals))
	for i, v := range pr.locals {
		micros[i] = v.Micros()
	}
	return stats.Summarize(micros), nil
}

// rank is one rank's §2 procedure: warm-up iterations, a barrier, then
// K timed iterations read from the rank's own clock.
func (pr *program) rank(c *mpi.Comm) {
	for w := 0; w < pr.cfg.Warmup; w++ {
		pr.once(c)
	}
	c.Barrier()
	start := c.Wtime()
	for i := 0; i < pr.cfg.K; i++ {
		pr.once(c)
	}
	end := c.Wtime()
	pr.locals[c.Rank()] = end.Sub(start) / sim.Duration(pr.cfg.K)
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
