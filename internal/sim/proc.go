package sim

import "fmt"

// Proc is a simulated process. It blocks in one of three ways — Sleep
// (its own wakeup queued), Suspend (no wakeup queued: an event handler
// queues it later with Kernel.Wake) or Signal.Await (Suspend behind a
// broadcast condition) — and is one of two kinds:
//
//   - A goroutine process (Kernel.Go) runs blocking code. At most one
//     runs at a time; the execution token passes directly between
//     processes (and the Run caller) over unbuffered channels, so
//     process code needs no locking and observes a consistent virtual
//     clock. A process that hands its kernel-side work to a Handler and
//     suspends is woken once, when its own code must run again.
//   - A scripted process (Kernel.Start) has no goroutine: its Handler
//     carries its work, and each wakeup calls Fire on the kernel's own
//     loop. Sleep, Suspend and Await queue or record the wait and return
//     at once; Fire then returns to the kernel, and the next wakeup
//     fires it again.
type Proc struct {
	k      *Kernel
	name   string // "" for an anonymous process (see Name)
	seq    int    // spawn order on the kernel, numbering anonymous processes
	resume chan struct{}
	h      Handler // a scripted process's work; nil for a goroutine process
	done   bool

	// waitKind and waitOn say what a parked process waits for ("signal"
	// and the signal's name, "sleep" and "", or "" and Suspend's
	// argument). They are kept apart so parking assigns two strings and
	// builds none; the deadlock report joins them.
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
	k.Wake(p, 0)
	return p
}

// Start begins p as a scripted process named name: h.Fire runs at the
// current simulated time, after the events already queued there, and
// again at each later wakeup of p, on whichever goroutine drives the
// kernel. p is caller-owned storage (a zero Proc, or one that has
// exited), so a layer that starts many scripted processes allocates
// none. A scripted process ends with Exit; a panic in its Fire fails
// the drive as a panic of the process. Its wakeups are events but not
// process wakeups (KernelWakeups), since none switches goroutines.
func (k *Kernel) Start(p *Proc, name string, h Handler) {
	k.procSeq++
	*p = Proc{k: k, name: name, seq: k.procSeq, h: h}
	k.procs[p] = struct{}{}
	k.Wake(p, 0)
}

// Exit ends a scripted process: its handler has no work left. It must
// not be woken again.
func (p *Proc) Exit() {
	p.done = true
	delete(p.k.procs, p)
}

// park hands the execution token onward and blocks until this process's
// own wakeup event is reached. kind and on record what the process waits
// for, for deadlock reports. Must be called from within the process
// itself, with a wakeup for it either already queued (Sleep) or arranged
// to be queued by another context with Kernel.Wake (Suspend,
// Signal.Await). It is the only place a process parks. A scripted
// process only records the wait: its handler returns to the kernel
// instead of blocking.
//
// Fast path: if the next runnable event is this process's own wakeup,
// park drains the intervening callback events inline and returns
// without any goroutine switch.
func (p *Proc) park(kind, on string) {
	p.waitKind, p.waitOn = kind, on
	if p.h != nil {
		return
	}
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
// when no other event precedes it a goroutine process resumes without
// leaving its own goroutine. A scripted process returns at once, its
// wakeup queued.
func (p *Proc) Sleep(d Duration) {
	p.k.Wake(p, d)
	p.park("sleep", "")
}

// Suspend parks p with no wakeup queued: it resumes only when another
// context — typically a Handler p scheduled before suspending — calls
// Kernel.Wake for it. on names what p waits for in deadlock reports. A
// scripted process returns at once, its wait recorded.
// Suspending a process nothing will wake leaves it parked until Run
// reports the deadlock.
func (p *Proc) Suspend(on string) { p.park("", on) }
