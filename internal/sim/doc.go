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
// deliveries) schedules without allocating; At adapts a plain func()
// to the same interface. A parked process records what it waits for as
// a kind and an object name, joined into text only by a deadlock
// report.
//
// # Coordination primitives
//
// Future is a single-assignment value processes can wait on (its first
// waiter is held inline, and Init re-arms a future embedded in a
// recycled object); Signal is a Future without a payload. With Sleep it
// is one of the two places a process parks. Both are built on the
// kernel's wakeup primitive and preserve determinism.
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
