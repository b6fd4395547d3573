package sim

import "fmt"

// Proc is a simulated process: a goroutine that runs simulated work and
// blocks on simulated conditions (Sleep, Future.Await).
// At most one process runs at a time; the execution token passes
// directly between processes (and the Run caller) over unbuffered
// channels, so process code needs no locking and observes a consistent
// virtual clock.
type Proc struct {
	k      *Kernel
	name   string // "" for an anonymous process (see Name)
	seq    int    // spawn order on the kernel, numbering anonymous processes
	resume chan struct{}
	done   bool

	// waitKind and waitOn say what a parked process waits for ("future"
	// and the future's name, or "sleep" and ""). They are kept apart so
	// parking assigns two strings and builds none; the deadlock report
	// joins them.
	waitKind, waitOn string
}

// interruptPanic unwinds a process goroutine when its kernel's drive
// was canceled (SetInterrupt): park panics with it after being resumed
// mid-cancellation, and the spawn wrapper's recover treats it as the
// expected exit rather than a process failure.
type interruptPanic struct{}

// Go spawns a process executing fn. The process starts at the current
// simulated time (via a zero-delay event). If fn panics, the panic is
// captured and surfaced as an error from Kernel.Run. An empty name
// reads as "proc-N", N counting the kernel's spawns from 1.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	k.procSeq++
	p := &Proc{k: k, name: name, seq: k.procSeq, resume: make(chan struct{})}
	k.procs[p] = struct{}{}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, interrupted := r.(interruptPanic); !interrupted && k.failure == nil {
					k.failure = fmt.Errorf("sim: process %q panicked: %v", p.Name(), r)
				}
			}
			p.done = true
			delete(k.procs, p)
			// The finishing process holds the token; keep driving.
			if next := k.next(); next != nil {
				next.resume <- struct{}{}
			} else {
				k.endDrive()
			}
		}()
		<-p.resume // wait for first dispatch
		if k.canceling {
			panic(interruptPanic{})
		}
		fn(p)
	}()
	k.wake(p, 0)
	return p
}

// park hands the execution token onward and blocks until this process's
// own wakeup event is reached. kind and on record what the process waits
// for, for deadlock reports. Must be called from within the process
// itself, with a wakeup for it either already queued or arranged to be
// scheduled by another context (Future.Resolve).
//
// Fast path: if the next runnable event is this process's own wakeup,
// park drains the intervening callback events inline and returns
// without any goroutine switch.
func (p *Proc) park(kind, on string) {
	p.waitKind, p.waitOn = kind, on
	k := p.k
	switch next := k.next(); next {
	case p:
		// Own wakeup reached — keep the token, keep running.
	case nil:
		k.endDrive() // nothing drivable: return the token to Run
		<-p.resume
	default:
		next.resume <- struct{}{} // direct switch to the next process
		<-p.resume
	}
	p.waitKind, p.waitOn = "", ""
	// A canceled drive resumes parked processes only so they can exit;
	// unwind instead of returning to simulated work.
	if k.canceling {
		panic(interruptPanic{})
	}
}

// Name returns the process name.
func (p *Proc) Name() string {
	if p.name == "" {
		return fmt.Sprintf("proc-%d", p.seq)
	}
	return p.name
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep suspends the process for d of simulated time. Zero and negative
// durations yield the processor for one zero-delay event round, which
// preserves FIFO fairness among runnable processes. The wakeup is
// stored by value in the event queue — no closure, no allocation — and
// when no other event precedes it the process resumes without leaving
// its own goroutine.
func (p *Proc) Sleep(d Duration) {
	p.k.wake(p, d)
	p.park("sleep", "")
}
