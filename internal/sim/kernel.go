package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// ErrInterrupted is the failure RunUntil reports when an installed
// interrupt probe (SetInterrupt) asked a drive to stop. The error wraps
// the probe's cause, so errors.Is sees both this sentinel and e.g. the
// context error that triggered the cancellation.
var ErrInterrupted = errors.New("sim: interrupted")

// interruptStride is how many executed events pass between interrupt
// probes. Kernel events run in tens of nanoseconds, so a drive notices
// cancellation within roughly a hundred microseconds of wall time while
// the uncancelled path pays one counter comparison per event.
const interruptStride = 2048

// Kernel is a discrete-event simulation executive. It owns the virtual
// clock and the event queue. A Kernel is not safe for concurrent use;
// all simulated activity is serialized through Run.
//
// Internally the kernel uses direct-switch scheduling: exactly one
// goroutine — the Run caller or one simulated process — holds the
// execution token at any time, and whoever holds it drains the event
// queue. Callback events run inline on the token holder; a process
// wakeup hands the token straight to that process's goroutine, so a
// process switch costs a single channel synchronization, and a process
// whose own wakeup is the next event simply keeps running with no
// switch at all.
type Kernel struct {
	now    Time
	events eventQueue
	seq    uint64

	// deadline bounds the current drive (RunUntil); events beyond it
	// stay queued.
	deadline Time

	// interrupt, when non-nil, is polled every interruptStride executed
	// events; a non-nil return cancels the drive (see SetInterrupt).
	// nextProbe is the executed-event count of the next poll, and
	// canceling marks a drive that is unwinding its live processes.
	interrupt func() error
	nextProbe uint64
	canceling bool

	// yield is the channel on which the token returns to the Run caller
	// when driving stops (queue drained, deadline reached, or failure).
	yield chan struct{}

	procs    map[*Proc]struct{} // live (spawned, not finished) processes
	procSeq  int
	failure  error // first process panic, if any
	rng      *rand.Rand
	executed uint64
	wakeups  uint64

	// flushedEvents/flushedWakeups mark how much of executed/wakeups the
	// process-wide counters (counters.go) have already absorbed.
	flushedEvents  uint64
	flushedWakeups uint64
}

// New returns a kernel with its clock at zero and a deterministic RNG
// seeded with seed.
func New(seed int64) *Kernel {
	return &Kernel{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Reset returns the kernel to the state New(seed) creates — clock at
// zero, empty event queue, reseeded RNG, counters cleared — while
// keeping the event queue's storage for reuse. It is the cheap way to
// run many independent executions (the §2 benchmark repetitions) on one
// kernel. Resetting a kernel whose processes are still live (Run
// returned an error, or was never driven to completion) panics: their
// goroutines are parked and cannot be reclaimed.
func (k *Kernel) Reset(seed int64) {
	if n := len(k.procs); n > 0 {
		panic(fmt.Sprintf("sim: Reset with %d live process(es): %s", n, k.parkedNames()))
	}
	k.flushCounters()
	k.now = 0
	k.seq = 0
	k.procSeq = 0
	k.executed = 0
	k.wakeups = 0
	k.flushedEvents = 0
	k.flushedWakeups = 0
	k.failure = nil
	k.canceling = false
	k.nextProbe = 0
	k.events.reset()
	k.rng.Seed(seed)
}

// SetInterrupt installs (or, with nil, removes) a cancellation probe:
// check is polled at event-loop drive boundaries, every interruptStride
// executed events, and a non-nil return aborts the drive. Every live
// process is then unwound — resumed once so it can exit its goroutine —
// and RunUntil returns an error wrapping both ErrInterrupted and the
// probe's cause. An interrupted kernel holds no live processes, so
// Reset makes it reusable. The probe persists across Reset, covering
// all repetitions of a measurement run; it must be cheap (it is called
// from the hot event loop) and must not touch kernel state.
func (k *Kernel) SetInterrupt(check func() error) {
	k.interrupt = check
	k.nextProbe = k.executed + interruptStride
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Schedule arranges for h.Fire to run at absolute time t. Scheduling in
// the past is an error in the model; it is clamped to the current time.
// The handler is stored by value, so a recycled handler object costs no
// allocation.
func (k *Kernel) Schedule(t Time, h Handler) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.events.push(t, k.seq, event{h: h})
}

// At schedules fn to run at absolute time t, clamped to the current
// time like Schedule.
func (k *Kernel) At(t Time, fn func()) { k.Schedule(t, funcHandler(fn)) }

// Wake schedules p to resume d after the current time; a non-positive
// d resumes it at the current time, after the events already queued
// there. p must have no wakeup queued: it is about to park (Sleep, a
// new process) or is suspended (Suspend, Signal.Await) and not yet
// woken. The wakeup is stored by value in the event queue, allocating
// nothing.
func (k *Kernel) Wake(p *Proc, d Duration) {
	t := k.now
	if d > 0 {
		t = t.Add(d)
	}
	k.seq++
	k.wakeups++
	k.events.push(t, k.seq, event{proc: p})
}

// Run executes events until the queue is empty. It returns an error if a
// process panicked, or if the queue drained while processes were still
// parked (a deadlock in the simulated system).
func (k *Kernel) Run() error { return k.RunUntil(Time(1<<63 - 1)) }

// RunUntil executes events with time ≤ deadline. The clock stops at the
// last executed event (it does not jump to the deadline).
func (k *Kernel) RunUntil(deadline Time) error {
	k.deadline = deadline
	for {
		p := k.next()
		if p == nil {
			break
		}
		p.resume <- struct{}{} // hand the token into the simulation
		<-k.yield              // token returns when driving stops
	}
	k.flushCounters()
	if k.failure != nil {
		return k.failure
	}
	if k.events.len() == 0 {
		if n := len(k.procs); n > 0 {
			return fmt.Errorf("sim: deadlock: %d process(es) parked with no pending events: %s", n, k.parkedNames())
		}
	}
	return nil
}

// next drains callback events inline and returns the next process to
// hand the token to, or nil when driving must stop (queue drained,
// deadline reached, or failure recorded). During cancellation it stops
// executing events and instead hands back live processes one at a time
// so each can unwind (panic out of park with interruptPanic).
func (k *Kernel) next() *Proc {
	if k.canceling {
		return k.anyProc()
	}
	for k.failure == nil {
		if k.interrupt != nil && k.executed >= k.nextProbe {
			k.nextProbe = k.executed + interruptStride
			if err := k.interrupt(); err != nil {
				k.canceling = true
				k.failure = fmt.Errorf("%w: %w", ErrInterrupted, err)
				return k.anyProc()
			}
		}
		if k.events.len() == 0 || k.events.minTime() > k.deadline {
			return nil
		}
		at, e := k.events.pop()
		k.now = at
		k.executed++
		if e.proc != nil {
			if e.proc.done {
				continue
			}
			return e.proc
		}
		e.h.Fire()
	}
	return nil
}

// anyProc returns one live process to resume for unwinding, or nil when
// all have exited (the cancellation is complete).
func (k *Kernel) anyProc() *Proc {
	for p := range k.procs {
		return p
	}
	return nil
}

// endDrive returns the token to the Run caller. Called by a process
// goroutine when next() found nothing left to drive.
func (k *Kernel) endDrive() {
	k.yield <- struct{}{}
}

// parkedNames lists parked processes (and what they wait on) for the
// deadlock report, truncated to 8 entries so a 128-rank deadlock stays
// one readable line.
func (k *Kernel) parkedNames() string {
	var b strings.Builder
	i := 0
	for p := range k.procs {
		if i > 0 {
			b.WriteString(", ")
		}
		if i == 8 {
			b.WriteString("…")
			break
		}
		b.WriteString(p.Name())
		if p.waitKind != "" || p.waitOn != "" {
			b.WriteString(" (waiting: ")
			b.WriteString(p.waitKind)
			if p.waitKind != "" && p.waitOn != "" {
				b.WriteString(" ")
			}
			b.WriteString(p.waitOn)
			b.WriteString(")")
		}
		i++
	}
	return b.String()
}
