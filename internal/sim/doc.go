// Package sim provides the deterministic discrete-event simulation
// kernel every machine model in this repository runs on.
//
// # Execution model
//
// The Kernel owns a virtual clock and an event queue and advances time
// by executing events in (time, sequence) order. Simulated activity is
// written as plain event callbacks or as processes (Proc) of two kinds:
//
//   - A goroutine process (Kernel.Go) runs blocking code, resumed and
//     parked under a strict one-runner handshake, so execution is
//     sequential and fully deterministic whatever the host scheduler
//     does.
//   - A scripted process (Kernel.Start) has no goroutine: a Handler
//     carries its work, and each of its wakeups calls Fire on the
//     kernel's own loop. A handler can carry a whole rank this way:
//     internal/mpi replays a recorded rank's steps in one, so the
//     measurement harness simulates with no goroutine per rank and no
//     process switch.
//
// Internally the kernel uses direct-switch scheduling: exactly one
// goroutine — the Run caller or one goroutine process — holds the
// execution token at any time, and whoever holds it drains the event
// queue. Callback events and scripted processes run inline on the token
// holder; a goroutine process's wakeup hands the token straight to that
// process's goroutine, so a process switch costs a single channel
// synchronization and a process whose own wakeup is the next event
// keeps running with no switch at all. Only those wakeups count as
// process wakeups (KernelWakeups); every event counts toward
// KernelEvents. Events live by value in a slot-recycled 4-ary heap whose
// entries carry their (time, seq) keys inline, so sifts never leave the
// heap array and the steady state allocates nothing.
//
// An event is a process wakeup or a Handler, whose Fire method the
// kernel calls at the event's time. Schedule stores a handler by value,
// so a layer that recycles its handler objects (internal/mpi's message
// deliveries, posted receives and rendezvous sends) schedules without
// allocating; At adapts a plain func() to the same interface. A parked
// process records what it waits for as a kind and an object name,
// joined into text only by a deadlock report.
//
// A panic in a process, or in any handler's Fire whichever goroutine
// holds the token, fails the drive: it is recovered where it happens,
// recorded (a process's panic names the process; any other reads
// "sim: handler panicked"), and every live process unwinds as on an
// interrupt before RunUntil returns the error.
//
// # Parking and waking
//
// A goroutine process parks in exactly one place, and three calls lead
// there (a scripted process only records the wait, and its handler
// returns):
//
//   - Sleep(d) queues the process's own wakeup d from now, then parks.
//   - Suspend(on) parks with no wakeup queued. Some other context —
//     usually a Handler the process scheduled just before — later calls
//     Kernel.Wake(p, d) to queue the wakeup d after its own time.
//   - Signal.Await suspends until the signal's Resolve wakes every
//     waiter.
//
// Suspend and Wake let a layer finish a process's kernel-side step in
// an event instead of in the process. internal/mpi uses them so a
// receive posted before its message arrives, and a rendezvous send,
// each wake their rank once: the handler that used to wake the rank
// draws the receive overhead, or injects the message, and wakes the
// rank only when its own code must run again. Each such handler takes
// the (time, seq) slot the rank's intermediate wakeup would have taken,
// so the event order, the random draws and every output are unchanged;
// only the wakeups, and the goroutine switches behind them, are fewer.
//
// # Coordination primitives
//
// Signal is a one-shot broadcast condition processes can wait on. Its
// first waiter is held inline, and Init re-arms a signal embedded in a
// recycled object (the T3D hardware barrier alternates two). Await
// parks as Suspend does and Resolve queues each waiter with Wake, so
// it adds no park path; waiters wake in the order they began waiting.
//
// # Reuse
//
// Kernel.Reset rewinds the clock and clears the queue while keeping its
// storage, so measurement harnesses (internal/measure) reuse one kernel
// — and one machine.Cluster — across benchmark repetitions instead of
// rebuilding the world; see also machine.Cluster.Reset. Determinism is enforced by the
// repository-root determinism tests, which byte-compare sweep reports
// and calibrated fits against committed goldens.
package sim
