package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// newSignal returns an unresolved signal on k, named name.
func newSignal(k *Kernel, name string) *Signal {
	s := new(Signal)
	s.Init(k, name)
	return s
}

func TestEventOrdering(t *testing.T) {
	k := New(1)
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("events at equal time not FIFO: order[%d] = %d", i, v)
		}
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	k := New(1)
	ran := false
	k.At(100, func() {
		k.At(50, func() { // in the past
			if k.Now() != 100 {
				t.Errorf("past event ran at %v, want clamp to 100", k.Now())
			}
			ran = true
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("clamped event never ran")
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var times []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.At(at, func() { times = append(times, at) })
	}
	if err := k.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || k.Now() != 20 {
		t.Fatalf("RunUntil(25): executed %v, now %v", times, k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 4 {
		t.Fatalf("resume after RunUntil: executed %v", times)
	}
}

func TestProcSleep(t *testing.T) {
	k := New(1)
	var wake []Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		wake = append(wake, p.Now())
		p.Sleep(10 * Microsecond)
		wake = append(wake, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wake) != 2 || wake[0] != Time(5*Microsecond) || wake[1] != Time(15*Microsecond) {
		t.Fatalf("wake times = %v", wake)
	}
}

func TestManyProcsInterleaveDeterministically(t *testing.T) {
	run := func(seed int64) []string {
		k := New(seed)
		var log []string
		for i := 0; i < 8; i++ {
			i := i
			k.Go("", func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Duration(i+1) * Microsecond)
					log = append(log, p.Name())
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(1), run(2)
	if len(a) != 24 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestProcPanicSurfacesAsError(t *testing.T) {
	k := New(1)
	k.Go("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := New(1)
	s := newSignal(k, "never")
	k.Go("stuck", func(p *Proc) { s.Await(p) })
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	// Parking records what it waits for in parts; the report joins them.
	if want := "stuck (waiting: signal never)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("deadlock report %q does not name %q", err, want)
	}
}

func TestDeadlockReportNamesAnonymousProcs(t *testing.T) {
	k := New(1)
	k.Go("", func(p *Proc) { newSignal(k, "x").Await(p) })
	k.Go("", func(p *Proc) { p.Sleep(1); newSignal(k, "y").Await(p) })
	k.Go("", func(p *Proc) { p.Sleep(2); p.Suspend("recv") })
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	for _, want := range []string{"proc-1 (waiting: signal x)", "proc-2 (waiting: signal y)", "proc-3 (waiting: recv)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report %q does not name %q", err, want)
		}
	}
}

// TestFutureInitReuse resolves one signal twice over, re-armed with
// Init in between: both generations wake their waiters (the first held
// inline, the rest queued) in arrival order.
func TestFutureInitReuse(t *testing.T) {
	k := New(1)
	s := newSignal(k, "s")
	var got []int
	for gen := 1; gen <= 2; gen++ {
		for i := 0; i < 3; i++ {
			k.Go("", func(p *Proc) { s.Await(p); got = append(got, 10*gen+i) })
		}
		k.At(k.Now().Add(5), s.Resolve)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		s.Init(k, "s")
	}
	if want := []int{10, 11, 12, 20, 21, 22}; !slices.Equal(got, want) {
		t.Fatalf("woken in order %v, want %v", got, want)
	}
}

// countHandler is a recycled Handler: scheduling it stores the pointer.
type countHandler struct{ n int }

func (h *countHandler) Fire() { h.n++ }

// TestScheduleAllocatesNothing drives recycled handlers and a
// preexisting callback through the kernel: neither the queue nor the
// At adapter allocates once the queue has grown.
func TestScheduleAllocatesNothing(t *testing.T) {
	k := New(1)
	h := &countHandler{}
	fn := func() { h.n++ }
	run := func() {
		for i := 0; i < 64; i++ {
			k.Schedule(k.Now().Add(Duration(i%7)), h)
			k.At(k.Now().Add(Duration(i%5)), fn)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("%.1f allocations per 128 scheduled events, want 0", allocs)
	}
	if h.n != 21*128 {
		t.Fatalf("fired %d events, want %d", h.n, 21*128)
	}
}

// TestEventQueueOrder pushes events with many equal times in random
// order, interleaved with pops, and checks that they come out sorted by
// (time, sequence).
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	var seq uint64
	lastAt, lastSeq := Time(-1), uint64(0)
	popped := 0
	pop := func() {
		at, e := q.pop()
		got := e.h.(*countHandler).n // the handler carries its seq
		if at < lastAt || at == lastAt && uint64(got) <= lastSeq {
			t.Fatalf("popped (%d, %d) after (%d, %d)", at, got, lastAt, lastSeq)
		}
		lastAt, lastSeq = at, uint64(got)
		popped++
	}
	for i := 0; i < 5000; i++ {
		seq++
		q.push(lastAt+Time(1+rng.Intn(20)), seq, event{h: &countHandler{n: int(seq)}})
		if rng.Intn(3) == 0 {
			pop()
		}
	}
	for q.len() > 0 {
		pop()
	}
	if popped != 5000 {
		t.Fatalf("popped %d events, want 5000", popped)
	}
}

// TestFutureResolveWakesAllFIFO: resolving a signal wakes every
// waiter at the resolve instant, in the order they began waiting.
func TestFutureResolveWakesAllFIFO(t *testing.T) {
	k := New(1)
	s := newSignal(k, "s")
	var got []int
	for i := 0; i < 5; i++ {
		k.Go("", func(p *Proc) {
			s.Await(p)
			if p.Now() != 100 {
				t.Errorf("waiter %d woke at %v, want 100", i, p.Now())
			}
			got = append(got, i)
		})
	}
	k.At(100, s.Resolve)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("woken in order %v, want %v", got, want)
	}
}

func TestFutureAwaitAfterResolveDoesNotBlock(t *testing.T) {
	k := New(1)
	s := newSignal(k, "s")
	s.Resolve()
	done := false
	k.Go("", func(p *Proc) {
		before := p.Now()
		s.Await(p)
		if p.Now() != before {
			t.Error("Await on resolved signal advanced time")
		}
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("waiter never returned")
	}
}

func TestFutureDoubleResolvePanics(t *testing.T) {
	k := New(1)
	s := newSignal(k, "s")
	s.Resolve()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double resolve")
		}
	}()
	s.Resolve()
}

// wakeAfter is a Handler that wakes a suspended process d after the
// event's time — the shape a layer uses to finish a process's
// kernel-side step without resuming it in between.
type wakeAfter struct {
	k *Kernel
	p *Proc
	d Duration
}

func (w *wakeAfter) Fire() { w.k.Wake(w.p, w.d) }

// TestSuspendWakesOnce: a process that schedules a handler and
// suspends resumes only at the time the handler's Wake names, at the
// cost of one wakeup beyond its spawn.
func TestSuspendWakesOnce(t *testing.T) {
	k := New(1)
	var woke Time
	k.Go("", func(p *Proc) {
		k.Schedule(10, &wakeAfter{k: k, p: p, d: 5})
		p.Suspend("handler")
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 15 {
		t.Fatalf("resumed at %v, want 15", woke)
	}
	if k.wakeups != 2 || k.executed != 3 {
		t.Fatalf("%d wakeups and %d events, want 2 and 3 (spawn, handler, wake)", k.wakeups, k.executed)
	}
}

func TestPerByte(t *testing.T) {
	cases := []struct {
		size int64
		mbps float64
		want Duration
	}{
		{65536, 40, 1638400}, // SP2 link: 64 KB at 40 MB/s = 1.6384 ms
		{65536, 300, 218453}, // T3D link
		{1, 1000, 1},         // 1 ns/byte
		{0, 100, 0},
		{100, 0, 0},
	}
	for _, c := range cases {
		if got := PerByte(c.size, c.mbps); got != c.want {
			t.Errorf("PerByte(%d, %v) = %d, want %d", c.size, c.mbps, got, c.want)
		}
	}
}

func TestDurationFormatting(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{50 * Microsecond, "50.00µs"},
		{50 * Millisecond, "50.00ms"},
		{12 * Second, "12.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestFromMicrosRoundTrip(t *testing.T) {
	for _, us := range []float64{0, 0.5, 3, 123.456, 1e6} {
		d := FromMicros(us)
		if diff := d.Micros() - us; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("FromMicros(%v) = %v", us, d)
		}
	}
}
