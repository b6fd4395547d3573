package sim

import "sync/atomic"

// Process-wide kernel counters behind a runtime toggle — no build tag.
// Every kernel always keeps its own per-drive tallies (its executed-
// event and wakeup counts are plain fields the scheduler already touches);
// when the toggle is on, each completed drive flushes its delta into
// these process totals with two atomic adds. The per-event hot path
// never pays: disabled or enabled, the cost lives at drive granularity,
// which is why the toggle needs no compile-time gate.
var (
	countersOn   atomic.Bool
	totalEvents  atomic.Uint64
	totalWakeups atomic.Uint64
)

// EnableCounters switches process-wide kernel counting on or off.
// Drives completed while disabled are not retroactively counted.
func EnableCounters(on bool) { countersOn.Store(on) }

// KernelEvents returns the process-wide executed-event total
// accumulated while counting was enabled.
func KernelEvents() uint64 { return totalEvents.Load() }

// KernelWakeups returns the process-wide scheduled-process-wakeup total
// accumulated while counting was enabled.
func KernelWakeups() uint64 { return totalWakeups.Load() }

// flushCounters folds the kernel's unflushed event/wakeup deltas into
// the process totals. Called when a drive ends and before Reset clears
// the per-kernel tallies; the flush markers advance regardless of the
// toggle, so enabling mid-process never double- or back-counts.
func (k *Kernel) flushCounters() {
	de := k.executed - k.flushedEvents
	dw := k.wakeups - k.flushedWakeups
	k.flushedEvents, k.flushedWakeups = k.executed, k.wakeups
	if de|dw != 0 && countersOn.Load() {
		totalEvents.Add(de)
		totalWakeups.Add(dw)
	}
}
