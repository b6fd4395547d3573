package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// script is a scripted process's handler for the tests: each Fire runs
// the next of its steps, which block by Sleep, Suspend or Await.
type script struct {
	p     Proc
	steps []func(p *Proc)
	at    []Time // the time each Fire ran
}

func (s *script) Fire() {
	s.at = append(s.at, s.p.Now())
	if len(s.steps) == 0 {
		s.p.Exit()
		return
	}
	step := s.steps[0]
	s.steps = s.steps[1:]
	step(&s.p)
}

// TestScriptedProcessRunsOnTheKernelLoop: a scripted process starts at
// the current time, resumes after each Sleep and at each Wake, and
// costs events but no process wakeups.
func TestScriptedProcessRunsOnTheKernelLoop(t *testing.T) {
	k := New(1)
	s := &script{}
	s.steps = []func(p *Proc){
		func(p *Proc) { p.Sleep(10) },
		func(p *Proc) {
			k.Schedule(p.Now().Add(5), &wakeAfter{k: k, p: p, d: 7})
			p.Suspend("handler")
		},
	}
	k.Start(&s.p, "scripted", s)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{0, 10, 22}; !equalTimes(s.at, want) {
		t.Fatalf("fired at %v, want %v", s.at, want)
	}
	if k.wakeups != 0 || k.executed != 4 {
		t.Fatalf("%d wakeups and %d events, want 0 and 4 (start, sleep, handler, wake)", k.wakeups, k.executed)
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d live process(es) after Exit", len(k.procs))
	}
}

// TestScriptedProcessAwaitsSignals: scripted and goroutine waiters on
// one signal wake in the order they began waiting, and a scripted
// process awaiting a resolved signal is woken at once.
func TestScriptedProcessAwaitsSignals(t *testing.T) {
	k := New(1)
	sig := newSignal(k, "s")
	var order []string
	s := &script{}
	s.steps = []func(p *Proc){
		func(p *Proc) { sig.Await(p) },
		func(p *Proc) { order = append(order, "scripted"); sig.Await(p) },
	}
	k.Go("first", func(p *Proc) { sig.Await(p); order = append(order, "first") })
	k.Start(&s.p, "scripted", s)
	k.Go("last", func(p *Proc) { sig.Await(p); order = append(order, "last") })
	k.At(3, sig.Resolve)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "first,scripted,last" {
		t.Fatalf("woke in order %s, want first,scripted,last", got)
	}
	if want := []Time{0, 3, 3}; !equalTimes(s.at, want) {
		t.Fatalf("fired at %v, want %v", s.at, want)
	}
}

// TestScriptedDeadlockNamesTheProcess: a scripted process left
// suspended is reported like a parked goroutine process, and a Reset
// drops it (it has no goroutine to reclaim).
func TestScriptedDeadlockNamesTheProcess(t *testing.T) {
	k := New(1)
	s := &script{steps: []func(p *Proc){func(p *Proc) { p.Suspend("recv") }}}
	k.Start(&s.p, "rank-1", s)
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "sim: deadlock") || !strings.Contains(err.Error(), "rank-1 (waiting: recv)") {
		t.Fatalf("Run() = %v, want a deadlock naming rank-1 (waiting: recv)", err)
	}
	k.Reset(2)
	if len(k.procs) != 0 {
		t.Fatalf("%d live process(es) after Reset", len(k.procs))
	}
}

// TestScriptedPanicNamesTheProcess: a panic in a scripted process's
// handler fails the drive as that process's panic.
func TestScriptedPanicNamesTheProcess(t *testing.T) {
	k := New(1)
	s := &script{steps: []func(p *Proc){
		func(p *Proc) { p.Sleep(1) },
		func(p *Proc) { panic("model bug") },
	}}
	k.Start(&s.p, "rank-3", s)
	err := k.Run()
	if err == nil || err.Error() != `sim: process "rank-3" panicked: model bug` {
		t.Fatalf("Run() = %v, want rank-3's panic", err)
	}
}

// TestHandlerPanicBlamesNoBystander: a handler that panics while a
// goroutine process holds the token is reported as a handler panic,
// not as a panic of that process, and the process unwinds.
func TestHandlerPanicBlamesNoBystander(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	k.Go("bystander", func(p *Proc) { p.Sleep(10) })
	k.At(5, func() { panic("handler bug") })
	err := k.Run()
	if err == nil || err.Error() != "sim: handler panicked: handler bug" {
		t.Fatalf("Run() = %v, want the handler's panic", err)
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d live process(es) after the failure: %s", len(k.procs), k.parkedNames())
	}
	settleGoroutines(t, base)
}

// TestHandlerPanicOnTheRunCallerIsAnError: a handler that panics while
// the Run caller holds the token fails the drive instead of escaping
// Run, and the kernel can be Reset and driven again.
func TestHandlerPanicOnTheRunCallerIsAnError(t *testing.T) {
	k := New(1)
	k.At(5, func() { panic("handler bug") })
	k.At(6, func() { t.Error("an event ran after the failure") })
	err := k.Run()
	if err == nil || err.Error() != "sim: handler panicked: handler bug" {
		t.Fatalf("Run() = %v, want the handler's panic", err)
	}
	k.Reset(1)
	ran := false
	k.At(1, func() { ran = true })
	if err := k.Run(); err != nil || !ran {
		t.Fatalf("after Reset: err=%v ran=%v", err, ran)
	}
}

// TestInterruptRetiresScriptedProcs: an interrupted drive leaves no
// scripted process live.
func TestInterruptRetiresScriptedProcs(t *testing.T) {
	cause := errors.New("stop")
	k := New(1)
	k.SetInterrupt(func() error { return cause })
	s := &script{}
	for i := 0; i < 3*interruptStride; i++ {
		s.steps = append(s.steps, func(p *Proc) { p.Sleep(1) })
	}
	k.Start(&s.p, "", s)
	if err := k.Run(); !errors.Is(err, cause) {
		t.Fatalf("Run() = %v, want the interrupt", err)
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d live process(es) after interrupt", len(k.procs))
	}
}

func equalTimes(a, b []Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
