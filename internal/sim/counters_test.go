package sim

import "testing"

// TestProcessWideCounters drives a kernel with the toggle off, then on,
// and checks that only the enabled drives reach the process totals —
// including across Reset, which must flush before clearing.
func TestProcessWideCounters(t *testing.T) {
	defer EnableCounters(false)

	run := func(k *Kernel) {
		k.Go("worker", func(p *Proc) {
			p.Sleep(5) // one scheduled wakeup
			p.Sleep(5) // and another
		})
		k.At(1, func() {}) // one callback event
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}

	EnableCounters(false)
	k := New(1)
	run(k)
	e0, w0 := KernelEvents(), KernelWakeups()

	EnableCounters(true)
	k.Reset(1) // the disabled drive's delta must NOT flush in
	if KernelEvents() != e0 || KernelWakeups() != w0 {
		t.Fatalf("disabled drive leaked into totals: events %d→%d wakeups %d→%d",
			e0, KernelEvents(), w0, KernelWakeups())
	}

	run(k)
	perEvents, perWakeups := KernelEvents()-e0, KernelWakeups()-w0
	if perEvents == 0 || perWakeups == 0 {
		t.Fatalf("enabled drive counted nothing: events +%d wakeups +%d", perEvents, perWakeups)
	}
	if perEvents != k.executed {
		t.Fatalf("flushed events %d, kernel executed %d", perEvents, k.executed)
	}

	// A second identical drive doubles the totals exactly — the flush
	// markers advance, nothing is re-counted.
	k.Reset(1)
	run(k)
	if got := KernelEvents() - e0; got != 2*perEvents {
		t.Fatalf("after two drives events +%d, want %d", got, 2*perEvents)
	}
	if got := KernelWakeups() - w0; got != 2*perWakeups {
		t.Fatalf("after two drives wakeups +%d, want %d", got, 2*perWakeups)
	}
}
