package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

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
	f := NewSignal(k, "never")
	k.Go("stuck", func(p *Proc) { f.Await(p) })
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	// Parking records what it waits for in parts; the report joins them.
	if want := "stuck (waiting: future never)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("deadlock report %q does not name %q", err, want)
	}
}

func TestDeadlockReportNamesAnonymousProcs(t *testing.T) {
	k := New(1)
	r := NewResource(k, "cpu", 1)
	k.Go("", func(p *Proc) { r.Acquire(p); NewSignal(k, "x").Await(p) })
	k.Go("", func(p *Proc) { r.Acquire(p) })
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	for _, want := range []string{"proc-1 (waiting: future x)", "proc-2 (waiting: resource cpu)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report %q does not name %q", err, want)
		}
	}
}

// TestFutureInitReuse resolves one future twice over, re-armed with
// Init in between: both generations wake their waiters (the first held
// inline, the rest queued) in arrival order.
func TestFutureInitReuse(t *testing.T) {
	k := New(1)
	f := NewFuture[int](k, "f")
	var got []int
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < 3; i++ {
			k.Go("", func(p *Proc) { got = append(got, 10*f.Await(p)+i) })
		}
		k.After(5, func() { f.Resolve(gen + 1) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		f.Init(k, "f")
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

func TestFutureResolveWakesAllFIFO(t *testing.T) {
	k := New(1)
	f := NewFuture[int](k, "f")
	var got []int
	for i := 0; i < 5; i++ {
		k.Go("", func(p *Proc) { got = append(got, f.Await(p)) })
	}
	k.At(100, func() { f.Resolve(42) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("woke %d waiters, want 5", len(got))
	}
	for _, v := range got {
		if v != 42 {
			t.Fatalf("value = %d, want 42", v)
		}
	}
}

func TestFutureAwaitAfterResolveDoesNotBlock(t *testing.T) {
	k := New(1)
	f := NewFuture[string](k, "f")
	f.Resolve("done")
	var got string
	k.Go("", func(p *Proc) {
		before := p.Now()
		got = f.Await(p)
		if p.Now() != before {
			t.Error("Await on resolved future advanced time")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "done" {
		t.Fatalf("got %q", got)
	}
}

func TestFutureDoubleResolvePanics(t *testing.T) {
	k := New(1)
	f := NewFuture[int](k, "f")
	f.Resolve(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double resolve")
		}
	}()
	f.Resolve(2)
}

func TestResourceSerializes(t *testing.T) {
	k := New(1)
	r := NewResource(k, "cpu", 1)
	var spans [][2]Time
	for i := 0; i < 4; i++ {
		k.Go("", func(p *Proc) {
			r.Acquire(p)
			start := p.Now()
			p.Sleep(10 * Microsecond)
			spans = append(spans, [2]Time{start, p.Now()})
			r.Release()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 4 {
		t.Fatalf("%d spans", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Fatalf("overlapping holds: %v", spans)
		}
	}
	if spans[3][1] != Time(40*Microsecond) {
		t.Fatalf("last release at %v, want 40µs", spans[3][1])
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	k := New(1)
	r := NewResource(k, "dma", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		k.Go("", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * Microsecond)
			r.Release()
			done = append(done, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two waves of two: finish at 10µs, 10µs, 20µs, 20µs.
	if done[1] != Time(10*Microsecond) || done[3] != Time(20*Microsecond) {
		t.Fatalf("done times = %v", done)
	}
}

func TestResourceFIFOAdmission(t *testing.T) {
	k := New(1)
	r := NewResource(k, "q", 1)
	var order []string
	names := []string{"a", "b", "c", "d"}
	for i, n := range names {
		n := n
		k.At(Time(i), func() {
			k.Go(n, func(p *Proc) {
				r.Acquire(p)
				order = append(order, p.Name())
				p.Sleep(Microsecond)
				r.Release()
			})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if order[i] != n {
			t.Fatalf("admission order = %v", order)
		}
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	k := New(1)
	r := NewResource(k, "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Release()
}

func TestLatchReleasesAllTogether(t *testing.T) {
	k := New(1)
	l := NewLatch(k, "sync", 3)
	var times []Time
	for i := 0; i < 3; i++ {
		i := i
		k.Go("", func(p *Proc) {
			p.Sleep(Duration(i*10) * Microsecond)
			l.Arrive(p)
			times = append(times, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tm := range times {
		if tm != Time(20*Microsecond) {
			t.Fatalf("latch release times = %v, want all 20µs", times)
		}
	}
}

func TestLatchReusableAcrossGenerations(t *testing.T) {
	k := New(1)
	l := NewLatch(k, "sync", 2)
	var hits int
	for i := 0; i < 2; i++ {
		k.Go("", func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Sleep(Microsecond)
				l.Arrive(p)
				hits++
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 10 {
		t.Fatalf("hits = %d, want 10", hits)
	}
}

func TestMailboxBlockingGet(t *testing.T) {
	k := New(1)
	m := NewMailbox[int](k, "mb")
	var got []int
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, m.Get(p))
		}
	})
	k.At(10, func() { m.Put(1) })
	k.At(20, func() { m.Put(2); m.Put(3) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
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
