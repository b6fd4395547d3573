// Package sim provides the deterministic discrete-event simulation
// kernel every machine model in this repository runs on.
//
// # Execution model
//
// The Kernel owns a virtual clock and an event queue and advances time
// by executing events in (time, sequence) order. Simulated activity is
// written either as plain event callbacks or as blocking processes
// (Proc) — each process is a goroutine resumed and parked under a
// strict one-runner handshake, so execution is sequential and fully
// deterministic whatever the host scheduler does.
//
// Internally the kernel uses direct-switch scheduling: exactly one
// goroutine — the Run caller or one simulated process — holds the
// execution token at any time, and whoever holds it drains the event
// queue. Callback events run inline on the token holder; a process
// wakeup hands the token straight to that process's goroutine, so a
// process switch costs a single channel synchronization and a process
// whose own wakeup is the next event keeps running with no switch at
// all. Events live by value in a slot-recycled 4-ary heap whose entries
// carry their (time, seq) keys inline, so sifts never leave the heap
// array and the steady state allocates nothing.
//
// An event is a process wakeup or a Handler, whose Fire method the
// kernel calls at the event's time. Schedule stores a handler by value,
// so a layer that recycles its handler objects (internal/mpi's message
// deliveries, posted receives and rendezvous sends) schedules without
// allocating; At adapts a plain func() to the same interface. A parked
// process records what it waits for as a kind and an object name,
// joined into text only by a deadlock report.
//
// # Parking and waking
//
// A process parks in exactly one place, and three calls lead there:
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
// Kernel.Reset rewinds the clock and clears the queue without
// releasing the process goroutines' stacks, so measurement harnesses
// (internal/measure) reuse one kernel — and one machine.Cluster —
// across benchmark repetitions instead of rebuilding the world; see
// also machine.Cluster.Reset. Determinism is enforced by the
// repository-root determinism tests, which byte-compare sweep reports
// and calibrated fits against committed goldens.
package sim
