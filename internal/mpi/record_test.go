package mpi

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
)

// settle fails t unless the goroutine count returns to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("recording goroutines leaked: %d live, base %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestRecordDeadlockNamesStuckRanks: receives that no send matches fail
// the recording with an error naming each stuck rank and the (source,
// tag) it waits for, and every recording goroutine exits.
func TestRecordDeadlockNamesStuckRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	_, err := Record(machine.SP2(), 4, Algorithms{}, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 5, make([]byte, 8))
		case 1:
			c.Recv(0, 5)
			c.Recv(0, 6)
		case 3:
			c.Recv(2, 9)
		}
	})
	if err == nil {
		t.Fatal("a recording with unmatched receives succeeded")
	}
	for _, want := range []string{"rank-1 (waiting: recv from 0 tag 0x6)", "rank-3 (waiting: recv from 2 tag 0x9)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "rank-0") || strings.Contains(err.Error(), "rank-2") {
		t.Errorf("error %q names a rank that finished", err)
	}
	settle(t, base)
}

// TestRecordPanicIsAnError: a rank body that panics while recording —
// including one that reads the clock, which a recording rank has not —
// fails the recording with an error naming the rank and the cause, and
// every recording goroutine exits, blocked ones included.
func TestRecordPanicIsAnError(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(c *Comm)
		want string
	}{
		{"panic", func(c *Comm) {
			if c.Rank() == 2 {
				panic("model bug")
			}
			c.Barrier()
		}, "rank-2 panicked: model bug"},
		{"clock", func(c *Comm) {
			c.Bcast(0, make([]byte, 4))
			if c.Rank() == 1 {
				_ = c.Proc().Now()
			}
		}, "rank-1 panicked: mpi: Comm.Proc reads the simulated clock"},
		{"compute", func(c *Comm) { c.Compute(sim.Microsecond) }, "rank-0 panicked: mpi: Comm.Compute reads the simulated clock"},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := Record(machine.Paragon(), 4, Algorithms{}, c.body)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Record() = %v, want an error containing %q", err, c.want)
			}
			settle(t, base)
		})
	}
}

// TestReplayDeadlockNamesTheRank: a plan that leaves a rank waiting for
// a message its peer never sends in the plan drains with that rank
// mid-plan, reported as the goroutine engine reports a parked rank.
func TestReplayDeadlockNamesTheRank(t *testing.T) {
	m := machine.T3D()
	scripts, err := Record(m, 2, Algorithms{},
		func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 3, make([]byte, 16))
			}
		},
		func(c *Comm) {
			if c.Rank() == 1 {
				c.Recv(0, 3)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	cl := machine.NewCluster(m, 2, 1)
	pl := NewPlayer(cl, []Phase{{Script: &scripts[1], Times: 1}})
	err = pl.Play()
	if err == nil || !strings.Contains(err.Error(), "sim: deadlock") || !strings.Contains(err.Error(), "rank-1 (waiting: recv)") {
		t.Fatalf("Play() = %v, want a deadlock naming rank-1 (waiting: recv)", err)
	}
	// The player holds no goroutine, and the cluster is reusable.
	settle(t, base)
	cl.Reset(1)
	pl = NewPlayer(cl, []Phase{{Script: &scripts[0], Times: 1}, {Script: &scripts[1], Times: 1}, {}})
	if err := pl.Play(); err != nil {
		t.Fatal(err)
	}
	if len(pl.Marks(0)) != 1 || len(pl.Marks(1)) != 1 {
		t.Fatalf("marks %v and %v, want one each", pl.Marks(0), pl.Marks(1))
	}
}

// TestReplayMatchesGoroutineRun: a recorded program of mixed sends,
// receives, collectives and Wtime marks replays to the same clock
// readings as its goroutine run, over repeated plays on a reset
// cluster, with the same number of kernel events and no process
// wakeups.
func TestReplayMatchesGoroutineRun(t *testing.T) {
	m := machine.SP2()
	const p, seed = 5, 9
	big := m.EagerLimit() + 100
	body := func(c *Comm) {
		r := c.Rank()
		c.Wtime()
		c.Send((r+1)%p, 1, make([]byte, big))
		c.Recv((r+p-1)%p, 1)
		c.Allreduce(make([]byte, 64), Sum, Float)
		c.Wtime()
		c.Alltoall(make([][]byte, p))
		c.Barrier()
		c.Wtime()
	}
	sim.EnableCounters(true)
	defer sim.EnableCounters(false)

	var want [][]sim.Time
	e0, w0 := sim.KernelEvents(), sim.KernelWakeups()
	cl := machine.NewCluster(m, p, seed)
	for rep := 0; rep < 2; rep++ {
		if rep > 0 {
			cl.Reset(seed + 1)
		}
		marks := make([][]sim.Time, p)
		if err := RunCluster(cl, Algorithms{}, func(c *Comm) {
			record := func() { marks[c.Rank()] = append(marks[c.Rank()], c.Wtime()) }
			r := c.Rank()
			record()
			c.Send((r+1)%p, 1, make([]byte, big))
			c.Recv((r+p-1)%p, 1)
			c.Allreduce(make([]byte, 64), Sum, Float)
			record()
			c.Alltoall(make([][]byte, p))
			c.Barrier()
			record()
		}); err != nil {
			t.Fatal(err)
		}
		want = append(want, marks...)
	}
	goroutineEvents := sim.KernelEvents() - e0
	if sim.KernelWakeups() == w0 {
		t.Fatal("the goroutine run counted no wakeups")
	}

	scripts, err := Record(m, p, Algorithms{}, body)
	if err != nil {
		t.Fatal(err)
	}
	e0, w0 = sim.KernelEvents(), sim.KernelWakeups()
	cl = machine.NewCluster(m, p, seed)
	pl := NewPlayer(cl, []Phase{{Script: &scripts[0], Times: 1}})
	var got [][]sim.Time
	for rep := 0; rep < 2; rep++ {
		if rep > 0 {
			cl.Reset(seed + 1)
		}
		if err := pl.Play(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < p; r++ {
			got = append(got, append([]sim.Time(nil), pl.Marks(r)...))
		}
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("rep %d rank %d: replay marks %v, goroutine run %v", i/p, i%p, got[i], want[i])
		}
	}
	if ev, wk := sim.KernelEvents()-e0, sim.KernelWakeups()-w0; ev != goroutineEvents || wk != 0 {
		t.Errorf("replay cost %d events and %d wakeups, want %d and 0", ev, wk, goroutineEvents)
	}
}
