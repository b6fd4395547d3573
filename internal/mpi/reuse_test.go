package mpi

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// received is one message as rank 0 saw it.
type received struct {
	src, tag, n int
	at          sim.Time
}

// mixedOrder is the (source, tag) order in which mixedReceives takes
// its twelve messages: interleaved across senders, and out of send
// order within senders 1 and 3.
var mixedOrder = [][2]int{
	{2, 20}, {1, 10}, {3, 31}, {3, 30}, {1, 11}, {2, 21},
	{1, 13}, {1, 12}, {2, 22}, {3, 32}, {3, 33}, {2, 23},
}

// mixedReceives runs a program on cl in which rank 0 takes twelve
// messages from three senders through exact (source, tag) receives,
// some already waiting in the unexpected queue and some still in
// flight, and returns what it received in order. Each payload starts
// with its source and tag, so the test can check the receive matched.
func mixedReceives(t *testing.T, cl *machine.Cluster) []received {
	t.Helper()
	var got []received
	queued, posted := 0, 0 // receives that found their message waiting, and that had to wait
	err := RunCluster(cl, Algorithms{}, func(c *Comm) {
		r := c.Rank()
		if r != 0 {
			for i := 0; i < 4; i++ {
				tag := 10*r + i
				c.Send(0, tag, EncodeInts(append([]int32{int32(r), int32(tag)}, make([]int32, r*i)...)))
				c.Compute(sim.Duration(300*r) * sim.Nanosecond)
			}
			return
		}
		// Late start: the first messages queue up as unexpected.
		c.Compute(3 * sim.Microsecond)
		for _, st := range mixedOrder {
			waiting := slices.ContainsFunc(c.w.ranks[0].unexpected, func(e envelope) bool {
				return e.src == st[0] && e.tag == st[1]
			})
			if waiting {
				queued++
			} else {
				posted++
			}
			data := c.Recv(st[0], st[1])
			v := DecodeInts(data)
			if int(v[0]) != st[0] || int(v[1]) != st[1] {
				t.Errorf("Recv(%d, %d) returned the message from %d with tag %d", st[0], st[1], v[0], v[1])
			}
			got = append(got, received{src: int(v[0]), tag: int(v[1]), n: len(data), at: c.Proc().Now()})
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
// each run against a fresh cluster: the posted receive and recycled
// deliveries must never carry anything from one run into the next.
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

// halfMatches runs a program on cl in which rank 0 waits for the
// message from rank 1 with tag 7 while two messages that match it only
// in part arrive first: one from rank 2 with tag 7, and one from rank 1
// with tag 8. It returns rank 0's log of what each receive returned and
// how many messages were queued as unexpected when it returned.
func halfMatches(t *testing.T, cl *machine.Cluster) []string {
	t.Helper()
	var log []string
	err := RunCluster(cl, Algorithms{}, func(c *Comm) {
		switch c.Rank() {
		case 0:
			for _, st := range [][2]int{{1, 7}, {1, 8}, {2, 7}} {
				data := c.Recv(st[0], st[1])
				log = append(log, fmt.Sprintf("Recv(%d,%d)=%s queued=%d at=%v",
					st[0], st[1], data, len(c.w.ranks[0].unexpected), c.Proc().Now()))
			}
		case 1:
			c.Compute(20 * sim.Microsecond)
			c.Send(0, 8, []byte("1/8"))
			c.Compute(20 * sim.Microsecond)
			c.Send(0, 7, []byte("1/7"))
		case 2:
			c.Send(0, 7, []byte("2/7"))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestRecvMatchesSourceAndTagExactly checks that a message matching a
// waiting receive in tag only, or in source only, stays unexpected
// until its own receive runs, on a fresh cluster and after
// Cluster.Reset.
func TestRecvMatchesSourceAndTagExactly(t *testing.T) {
	const seed = 3
	for _, m := range []*machine.Machine{machine.SP2(), machine.Paragon(), machine.T3D()} {
		want := halfMatches(t, machine.NewCluster(m, 3, seed))
		if len(want) != 3 {
			t.Fatalf("%s: %d receives returned, want 3", m.Name(), len(want))
		}
		for i, prefix := range []string{"Recv(1,7)=1/7 queued=2 ", "Recv(1,8)=1/8 queued=1 ", "Recv(2,7)=2/7 queued=0 "} {
			if !strings.HasPrefix(want[i], prefix) {
				t.Fatalf("%s: receive %d logged %q, want prefix %q", m.Name(), i, want[i], prefix)
			}
		}
		cl := machine.NewCluster(m, 3, seed+1)
		halfMatches(t, cl)
		cl.Reset(seed)
		if got := halfMatches(t, cl); !slices.Equal(got, want) {
			t.Fatalf("%s on a reset cluster:\n got %q\nwant %q", m.Name(), got, want)
		}
	}
}
