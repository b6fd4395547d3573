package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// spinUp runs a workload with many parked and running processes: one
// spinner generating a steady event stream (so interrupt probes fire),
// several processes parked forever on an unresolved signal, and some
// suspended with no wakeup queued.
func spinUp(k *Kernel) {
	s := newSignal(k, "never")
	for i := 0; i < 8; i++ {
		k.Go("", func(p *Proc) { s.Await(p) })
	}
	for i := 0; i < 4; i++ {
		k.Go("", func(p *Proc) { p.Suspend("never woken") })
	}
	k.Go("spinner", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
}

// settleGoroutines polls until the goroutine count drops back to at
// most base, tolerating scheduler lag after the unwind.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, want ≤ %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInterruptUnwindsAllProcs: a firing interrupt probe aborts the
// drive with an error wrapping both ErrInterrupted and the cause, and
// every process goroutine — parked or runnable — exits.
func TestInterruptUnwindsAllProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	cause := errors.New("deadline pressure")
	k := New(1)
	k.SetInterrupt(func() error { return cause })
	spinUp(k)
	err := k.Run()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run() = %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("Run() = %v, want it to wrap the probe's cause", err)
	}
	if n := len(k.procs); n != 0 {
		t.Fatalf("%d live process(es) after interrupt: %s", n, k.parkedNames())
	}
	settleGoroutines(t, base)
}

// TestInterruptedKernelIsResettable: after an interrupt the kernel
// holds no live processes, so Reset restores it for a clean run — the
// contract estimate's measurement loop depends on for retries.
func TestInterruptedKernelIsResettable(t *testing.T) {
	cause := errors.New("stop")
	fire := false
	k := New(1)
	k.SetInterrupt(func() error {
		if fire {
			return cause
		}
		return nil
	})

	// Clean run first: an installed-but-quiet probe changes nothing.
	done := false
	k.Go("worker", func(p *Proc) {
		for i := 0; i < 5000; i++ {
			p.Sleep(Microsecond)
		}
		done = true
	})
	if err := k.Run(); err != nil || !done {
		t.Fatalf("quiet probe: err=%v done=%v", err, done)
	}

	// Interrupted run.
	k.Reset(2)
	fire = true
	spinUp(k)
	if err := k.Run(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run() = %v, want ErrInterrupted", err)
	}

	// Reset and run clean again — the probe persists across Reset but
	// is quiet now.
	fire = false
	k.Reset(3)
	done = false
	k.Go("worker", func(p *Proc) {
		p.Sleep(Microsecond)
		done = true
	})
	if err := k.Run(); err != nil || !done {
		t.Fatalf("after interrupted Reset: err=%v done=%v", err, done)
	}
}

// TestInterruptRemovedBySetNil: SetInterrupt(nil) uninstalls the probe.
func TestInterruptRemovedBySetNil(t *testing.T) {
	k := New(1)
	k.SetInterrupt(func() error { return errors.New("should never fire") })
	k.SetInterrupt(nil)
	done := false
	k.Go("worker", func(p *Proc) {
		for i := 0; i < 5000; i++ { // well past one probe stride
			p.Sleep(Microsecond)
		}
		done = true
	})
	if err := k.Run(); err != nil || !done {
		t.Fatalf("removed probe still fired: err=%v done=%v", err, done)
	}
}

// TestInterruptDeterministicBoundary: the probe is polled on event
// strides, so a firing check stops the drive at a deterministic event
// count — the property that keeps cancellation reproducible.
func TestInterruptDeterministicBoundary(t *testing.T) {
	run := func() uint64 {
		k := New(7)
		k.SetInterrupt(func() error { return errors.New("now") })
		spinUp(k)
		if err := k.Run(); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("Run() = %v", err)
		}
		return k.executed
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("interrupt boundary not deterministic: %d vs %d events", a, b)
	}
}
