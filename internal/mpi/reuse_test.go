package mpi

import (
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// received is one message as rank 0 saw it.
type received struct {
	src, tag, n int
	at          sim.Time
}

// mixedReceives runs a program on cl in which rank 0 takes twelve
// messages from three senders through wildcard and specific receives,
// blocking and nonblocking, some already waiting in the unexpected
// queue and some still in flight, and returns what it received in
// order. Each payload starts with its source and tag, so receives that
// do not report them still can.
func mixedReceives(t *testing.T, cl *machine.Cluster) []received {
	t.Helper()
	var got []received
	queued, posted := 0, 0 // receives that found a message waiting, and that had to wait
	err := RunCluster(cl, func(c *Comm) {
		r := c.Rank()
		if r != 0 {
			for i := 0; i < 4; i++ {
				tag := 10*r + i
				c.Send(0, tag, EncodeInts(append([]int32{int32(r), int32(tag)}, make([]int32, r*i)...)))
				c.Compute(sim.Duration(300*r) * sim.Nanosecond)
			}
			return
		}
		left := []int{0, 4, 4, 4} // messages still to come, by source
		note := func(data []byte) {
			v := DecodeInts(data)
			got = append(got, received{src: int(v[0]), tag: int(v[1]), n: len(data), at: c.Proc().Now()})
			left[v[0]]--
		}
		// Late start: the first messages queue up as unexpected.
		c.Compute(3 * sim.Microsecond)
		for i := 0; i < 12; i++ {
			if len(c.w.ranks[0].unexpected) > 0 {
				queued++
			} else {
				posted++
			}
			switch i % 3 {
			case 0:
				data, from := c.RecvFrom(AnySource, AnyTag)
				note(data)
				if from != got[len(got)-1].src {
					t.Errorf("RecvFrom reported source %d for a message from %d", from, got[len(got)-1].src)
				}
			case 1:
				// The source with the most messages outstanding.
				src := 1
				for s := 2; s < len(left); s++ {
					if left[s] > left[src] {
						src = s
					}
				}
				note(c.Recv(src, AnyTag))
			case 2:
				req := c.Irecv(AnySource, AnyTag)
				c.Compute(200 * sim.Nanosecond)
				note(req.Wait())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if queued == 0 || posted == 0 {
		t.Fatalf("%d receives found a queued message and %d waited; the program must mix both", queued, posted)
	}
	return got
}

// TestResetClusterReceivesMatchFresh runs one message-matching program
// twice on a reused cluster (Cluster.Reset between runs) and checks
// each run against a fresh cluster: recycled receives and deliveries
// must never carry anything from one run into the next.
func TestResetClusterReceivesMatchFresh(t *testing.T) {
	const seed = 5
	for _, m := range []*machine.Machine{machine.SP2(), machine.Paragon(), machine.T3D()} {
		want := mixedReceives(t, machine.NewCluster(m, 4, seed))
		if len(want) != 12 {
			t.Fatalf("%s: received %d tagged messages, want 12", m.Name(), len(want))
		}
		cl := machine.NewCluster(m, 4, seed+1)
		mixedReceives(t, cl) // dirty the cluster with another seed's run
		for run := 0; run < 2; run++ {
			cl.Reset(seed)
			if got := mixedReceives(t, cl); !slices.Equal(got, want) {
				t.Fatalf("%s run %d on a reset cluster:\n got %v\nwant %v", m.Name(), run, got, want)
			}
		}
	}
}
