package mpi

import (
	"repro/internal/coll"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Comm is a rank's handle on MPI_COMM_WORLD, the only communicator the
// paper's benchmarks use. It implements coll.Transport, so the
// collective algorithms run directly over it with per-operation costs
// read from the machine model's resolved tables (machine.Costs). While
// recording (Record) the same calls append the rank's steps instead of
// simulating them.
type Comm struct {
	w       *World
	rank    int
	proc    *sim.Proc
	opClass machine.Op
	cost    *machine.Costs // opClass's resolved costs
}

var _ coll.Transport = (*Comm)(nil)

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of processes.
func (c *Comm) Size() int { return len(c.w.ranks) }

// Proc returns the underlying simulated process. A recorded rank has
// none, so Proc panics while recording.
func (c *Comm) Proc() *sim.Proc {
	if c.w.rec != nil {
		panic(clockReadError("Proc"))
	}
	return c.proc
}

// Wtime returns this node's wall-clock reading — like MPI_Wtime it uses
// the node's own unsynchronized clock, so differences are only
// meaningful within one rank (the reason behind the paper's max-reduce
// measurement procedure). While recording it returns 0 and records a
// mark, which a replay reads as the rank's clock at that step.
func (c *Comm) Wtime() sim.Time {
	if c.w.rec != nil {
		c.w.rec.add(c.rank, step{kind: stepMark})
		return 0
	}
	return c.w.cluster.LocalClock(c.rank)
}

// Compute occupies this rank's CPU for d of simulated time, modeling
// application computation between communication phases. It panics while
// recording: a script replays communication only.
func (c *Comm) Compute(d sim.Duration) {
	if c.w.rec != nil {
		panic(clockReadError("Compute"))
	}
	c.proc.Sleep(d)
}

// as returns a view of the communicator with the cost class set, under
// which Send/Recv/Combine charge that operation's calibrated overheads.
// A view is a shallow copy made once per rank and op, then reused.
// Every field but opClass and cost is fixed, so a view left behind when
// the views slice grows stays equivalent to its copy.
func (c *Comm) as(op machine.Op) *Comm {
	if c.opClass == op {
		return c
	}
	st := &c.w.ranks[c.rank]
	for i := range st.views {
		if st.views[i].opClass == op {
			return &st.views[i]
		}
	}
	st.views = append(st.views, *c)
	v := &st.views[len(st.views)-1]
	v.opClass, v.cost = op, c.w.mach.Costs(op)
	return v
}

// Send transmits data to dst with the given tag. Messages up to the
// machine's eager limit are buffered: the call returns once the sender
// CPU has handed the data off, and delivery proceeds at the fabric's
// pace. Larger messages use rendezvous-style flow control: the call
// blocks until the data has left the node, as MPI_Send did on all three
// machines — without this a looping sender would pre-book the network
// arbitrarily far ahead. The rank suspends once for the whole
// rendezvous; its handler injects the message (see rendezvous.Fire).
func (c *Comm) Send(dst, tag int, data []byte) {
	if rec := c.w.rec; rec != nil {
		rec.send(c, dst, tag, data)
		return
	}
	st := &c.w.ranks[c.rank]
	overhead := c.w.cluster.Jitter(c.cost.Send)
	e := envelope{src: c.rank, tag: tag, data: data}
	if len(data) <= c.w.eagerLimit {
		c.proc.Sleep(overhead)
		st.inject(c.cost, dst, e)
		return
	}
	st.startRendezvous(c.cost, dst, e, overhead)
}

// Recv blocks until the message from src with the given tag has arrived
// and been processed, and returns its payload. Matching is exact: the
// paper's benchmarks name both source and tag on every receive. A
// receive posted before its message arrives suspends the rank once; the
// posted receive's handler charges the overhead (see postedRecv.Fire).
func (c *Comm) Recv(src, tag int) []byte {
	if rec := c.w.rec; rec != nil {
		return rec.recv(c, src, tag)
	}
	return c.w.ranks[c.rank].receive(src, tag, c.cost)
}

// Combine implements coll.Transport: it applies the reduction step and
// charges the machine's arithmetic cost for this operation class. Under
// opaque payloads the cost is still charged but the data untouched —
// the merged operand has a's length either way.
func (c *Comm) Combine(a, b []byte, f coll.Combiner) []byte {
	if cost := c.cost.Combine(len(a)); cost > 0 {
		if rec := c.w.rec; rec != nil {
			rec.add(c.rank, step{kind: stepCombine, n: int32(len(a)), cost: c.cost})
		} else {
			c.proc.Sleep(c.w.cluster.Jitter(cost))
		}
	}
	if c.w.opaque {
		return a
	}
	return f(a, b)
}

// OpaquePayloads implements coll.OpaqueTransport: it reports whether
// this world runs with length-only payloads, as a recording does (its
// rank bodies' buffers are all zeros and their results discarded).
func (c *Comm) OpaquePayloads() bool { return c.w.opaque }
