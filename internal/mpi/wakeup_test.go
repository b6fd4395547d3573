package mpi

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
)

// wakeupsOf runs body as a two-rank program on m and returns how many
// process wakeups the kernel scheduled for it, spawns included.
func wakeupsOf(t *testing.T, m *machine.Machine, seed int64, body func(c *Comm)) uint64 {
	t.Helper()
	sim.EnableCounters(true)
	defer sim.EnableCounters(false)
	w0 := sim.KernelWakeups()
	if err := Run(m, 2, seed, body); err != nil {
		t.Fatal(err)
	}
	return sim.KernelWakeups() - w0
}

// TestEachCallWakesItsRankOnce: every blocking point-to-point call
// costs its rank exactly one process wakeup — a receive posted before
// its message arrives and a rendezvous send included, whose kernel-side
// steps (the receive overhead draw; the injection) run in a handler
// while the rank stays suspended. The replay on a second cluster with
// the same seed draws the same jitters and books the same transfers,
// so the return times are checked exactly.
func TestEachCallWakesItsRankOnce(t *testing.T) {
	const seed = 5
	m := machine.SP2()
	cost := m.Costs(machine.OpP2P)
	small, large := 64, m.EagerLimit()+1
	const spawns = 2

	// An eager send: one wakeup at the end of the send overhead; the
	// message is left unexpected at rank 1.
	var eagerDone sim.Time
	if got := wakeupsOf(t, m, seed, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, small))
			eagerDone = c.Proc().Now()
		}
	}); got != spawns+1 {
		t.Errorf("eager send: %d wakeups, want %d", got, spawns+1)
	}
	replay := machine.NewCluster(m, 2, seed)
	if want := sim.Time(replay.Jitter(cost.Send)); eagerDone != want {
		t.Errorf("eager send returned at %v, want %v (its overhead)", eagerDone, want)
	}

	// A rendezvous send: one wakeup, when the data has left the node.
	var rdvDone sim.Time
	if got := wakeupsOf(t, m, seed, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, large))
			rdvDone = c.Proc().Now()
		}
	}); got != spawns+1 {
		t.Errorf("rendezvous send: %d wakeups, want %d", got, spawns+1)
	}
	replay = machine.NewCluster(m, 2, seed)
	ready := sim.Time(replay.Jitter(cost.Send))
	txDone, _ := replay.Net().Transfer(0, 1, large, ready, cost.InjMBs(large))
	if rdvDone != txDone {
		t.Errorf("rendezvous send returned at %v, want injection end %v", rdvDone, txDone)
	}

	// A receive posted before its message arrives: one wakeup beyond the
	// eager send's, at arrival plus the charged receive overhead.
	var recvDone sim.Time
	if got := wakeupsOf(t, m, seed, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, small))
			return
		}
		if len(c.w.ranks[1].unexpected) != 0 {
			t.Error("message arrived before the receive was posted")
		}
		c.Recv(0, 0)
		recvDone = c.Proc().Now()
	}); got != spawns+2 {
		t.Errorf("posted receive: %d wakeups with the eager send, want %d", got, spawns+2)
	}
	replay = machine.NewCluster(m, 2, seed)
	ready = sim.Time(replay.Jitter(cost.Send))
	_, arrive := replay.Net().Transfer(0, 1, small, ready, cost.InjMBs(small))
	overhead := recvDone.Sub(arrive)
	if hi := cost.Recv + sim.Duration(float64(cost.Recv)*m.Params().JitterFrac); overhead < cost.Recv || overhead >= hi {
		t.Errorf("posted receive charged %v after arrival, want within [%v, %v)", overhead, cost.Recv, hi)
	}
	if want := replay.Jitter(cost.Recv); overhead != want {
		t.Errorf("posted receive charged %v after arrival, want the drawn %v", overhead, want)
	}

	// A receive of an already-queued message: one wakeup beyond the
	// eager send's and the wait that lets the message arrive first.
	if got := wakeupsOf(t, m, seed, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, small))
			return
		}
		c.Compute(sim.Millisecond)
		if len(c.w.ranks[1].unexpected) != 1 {
			t.Error("message not queued before the receive")
		}
		c.Recv(0, 0)
	}); got != spawns+3 {
		t.Errorf("queued receive: %d wakeups with the eager send and the wait, want %d", got, spawns+3)
	}
}

// TestRendezvousInjectionIsPositive pins the invariant the rendezvous
// handler asserts: on every preset and in every op's cost class, a
// message just above the eager limit (and a large one) takes at least a
// nanosecond to leave the node, so the sender's wakeup is never due at
// the instant its injection starts.
func TestRendezvousInjectionIsPositive(t *testing.T) {
	ops := append([]machine.Op{machine.OpP2P, machine.OpAllgather, machine.OpAllreduce}, machine.Ops...)
	for _, m := range machine.All() {
		for _, op := range ops {
			cost := m.Costs(op)
			for _, size := range []int{m.EagerLimit() + 1, 1 << 20} {
				if d := sim.PerByte(int64(size), cost.InjMBs(size)); d < 1 {
					t.Errorf("%s %s: %d bytes inject in %v, want ≥ 1ns", m.Name(), op, size, d)
				}
			}
		}
	}
}

// TestInterruptUnwindsSuspendedRanks cancels a run at an instant when
// some ranks are suspended in posted receives and others in rendezvous
// sends — parked with no wakeup of their own queued — and checks that
// every rank goroutine still unwinds.
func TestInterruptUnwindsSuspendedRanks(t *testing.T) {
	const p = 8
	base := runtime.NumGoroutine()
	cause := errors.New("canceled")
	cl := machine.NewCluster(machine.Paragon(), p, 1)
	var (
		w       *World
		inSend  [p]bool
		stopped bool
	)
	cl.Kernel().SetInterrupt(func() error {
		if w == nil {
			return nil
		}
		posted, sending := 0, 0
		for r := range w.ranks {
			if w.ranks[r].recv.waiting {
				posted++
			}
			if inSend[r] {
				sending++
			}
		}
		if posted == 0 || sending == 0 {
			return nil
		}
		stopped = true
		return cause
	})
	msg := make([]byte, 64<<10)
	err := RunCluster(cl, Algorithms{}, func(c *Comm) {
		r := c.Rank()
		w = c.w
		if r%2 == 1 {
			c.Compute(sim.Duration(r) * sim.Microsecond)
		}
		for i := 0; i < 2000; i++ {
			inSend[r] = true
			c.Send((r+1)%p, 0, msg)
			inSend[r] = false
			c.Recv((r+p-1)%p, 0)
		}
	})
	if !stopped {
		t.Fatalf("the probe never saw posted receives and rendezvous sends at once (err %v)", err)
	}
	if !errors.Is(err, sim.ErrInterrupted) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want an interrupt wrapping the probe's cause", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("rank goroutines leaked: %d live, base %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
