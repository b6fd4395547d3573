package mpi

import (
	"repro/internal/coll"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Phase is one stretch of a replay plan: every rank runs Script's steps
// Times times over, or, when Script is nil, reads its clock once (a
// Wtime mark).
type Phase struct {
	Script *Script
	Times  int
}

// markStep is the step a plan's mark phase replays.
var markStep = step{kind: stepMark}

// Player replays a plan of recorded scripts on a cluster. Each rank is
// a scripted process (sim.Kernel.Start) whose handler runs the rank's
// steps until one blocks: it takes the (time, seq) slot the rank's
// goroutine wakeup would take, draws the same jitters and pushes the
// same events in the same order, and shares every kernel-side step
// (deliver, take, inject, the posted receive's and the rendezvous
// send's handlers, the hardware barrier) with goroutine ranks. So a
// replay reproduces the goroutine run of the same program bit for bit,
// with no goroutine and no process switch.
type Player struct {
	w       *World
	runners []runner
}

// NewPlayer prepares plan's replay on cl, whose size must be the
// scripts' rank count. The player keeps its storage across Plays.
func NewPlayer(cl *machine.Cluster, plan []Phase) *Player {
	w := newWorld(cl.Machine(), cl.Size(), Algorithms{})
	w.cluster = cl
	pl := &Player{w: w, runners: make([]runner, cl.Size())}
	// Each rank's marks: one per mark phase, and one per recorded Wtime
	// in each repetition of a script.
	counts := make([]int, len(pl.runners))
	total := 0
	for r := range counts {
		for _, ph := range plan {
			if ph.Script == nil {
				counts[r]++
				continue
			}
			for _, s := range ph.Script.steps[r] {
				if s.kind == stepMark {
					counts[r] += ph.Times
				}
			}
		}
		total += counts[r]
	}
	marks := make([]sim.Time, total)
	for r := range pl.runners {
		rn := &pl.runners[r]
		rn.st, rn.plan = &w.ranks[r], plan
		rn.st.proc = &rn.proc
		rn.marks, marks = marks[:0:counts[r]], marks[counts[r]:]
	}
	return pl
}

// Play runs the plan once from the cluster's current state (fresh, or
// Reset since the last Play) and drives it to completion. It returns
// the drive's error: an interrupt, a panic, or a deadlock naming each
// rank left mid-plan and what it waits for.
func (pl *Player) Play() error {
	k := pl.w.cluster.Kernel()
	for r := range pl.runners {
		rn := &pl.runners[r]
		st := rn.st
		clear(st.unexpected)
		st.unexpected = st.unexpected[:0]
		st.recv.waiting = false
		rn.phase, rn.rep, rn.pc, rn.eager = 0, 0, 0, nil
		rn.marks = rn.marks[:0]
		k.Start(&rn.proc, rankName(r), rn)
	}
	return k.Run()
}

// Marks returns rank's clock readings from the last Play, in plan
// order: its node's local clock (Comm.Wtime) at each mark.
func (pl *Player) Marks(rank int) []sim.Time { return pl.runners[rank].marks }

// runner is one rank's replay: the scripted process and the handler
// that carries it through the plan.
type runner struct {
	proc           sim.Proc
	st             *rankState
	plan           []Phase
	phase, rep, pc int   // the next step: plan[phase], repetition rep, step pc
	eager          *step // an eager send to inject when the rank resumes
	marks          []sim.Time
}

// next returns the rank's next step, or nil at the end of the plan.
func (r *runner) next() *step {
	for r.phase < len(r.plan) {
		ph := &r.plan[r.phase]
		if ph.Script == nil {
			r.phase++
			return &markStep
		}
		if r.rep < ph.Times {
			steps := ph.Script.steps[r.st.rank]
			if r.pc < len(steps) {
				r.pc++
				return &steps[r.pc-1]
			}
			r.pc = 0
			r.rep++
			continue
		}
		r.rep = 0
		r.phase++
	}
	return nil
}

// Fire implements sim.Handler: the rank resumes, finishes an eager send
// it slept through, and runs steps until one blocks. Each case mirrors
// the goroutine rank's call (Comm.enter, Send, Recv, Combine, Barrier,
// Wtime) draw for draw.
func (r *runner) Fire() {
	st := r.st
	w := st.w
	cl := w.cluster
	if s := r.eager; s != nil {
		r.eager = nil
		st.inject(s.cost, int(s.peer), r.envelope(s))
	}
	for s := r.next(); s != nil; s = r.next() {
		switch s.kind {
		case stepCall:
			r.proc.Sleep(cl.Jitter(s.cost.Call))
			return
		case stepSend:
			overhead := cl.Jitter(s.cost.Send)
			if int(s.n) <= w.eagerLimit {
				r.eager = s
				r.proc.Sleep(overhead)
			} else {
				st.startRendezvous(s.cost, int(s.peer), r.envelope(s), overhead)
			}
			return
		case stepRecv:
			st.receive(int(s.peer), int(s.tag), s.cost)
			return
		case stepCombine:
			r.proc.Sleep(cl.Jitter(s.cost.Combine(int(s.n))))
			return
		case stepBarrier:
			cl.HardwareBarrierEnter(&r.proc)
			return
		case stepMark:
			r.marks = append(r.marks, cl.LocalClock(st.rank))
		}
	}
	r.proc.Exit()
}

// envelope is send step s's message: an opaque payload of its length.
func (r *runner) envelope(s *step) envelope {
	return envelope{src: r.st.rank, tag: int(s.tag), data: coll.ZeroBytes(int(s.n))}
}
