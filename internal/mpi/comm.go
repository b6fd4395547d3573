package mpi

import (
	"repro/internal/coll"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Comm is a rank's communicator handle — MPI_COMM_WORLD bound to one
// process, or a sub-communicator produced by Split. It implements
// coll.Transport, so the collective algorithms run directly over it with
// per-operation costs read from the machine model's resolved tables
// (machine.Costs). Group-relative ranks are translated to world ranks at
// the wire, and each communicator stamps its messages with a context ID
// so traffic in different communicators can never match.
type Comm struct {
	w       *World
	rank    int // world rank of this process
	proc    *sim.Proc
	opClass machine.Op
	cost    *machine.Costs // opClass's resolved costs

	group []int       // world ranks of the members, nil for the world
	myIdx int         // my position in group (== rank when group is nil)
	ctx   int         // communicator context ID (0 for the world)
	sh    *commShared // shared by every cost-classed view (see as)
}

// commShared is what all cost-classed views of one rank's communicator
// share: its Split counter and the views themselves.
type commShared struct {
	splitSeq int
	views    []Comm
}

var _ coll.Transport = (*Comm)(nil)

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int {
	if c.group == nil {
		return c.rank
	}
	return c.myIdx
}

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int {
	if c.group == nil {
		return c.w.cluster.Size()
	}
	return len(c.group)
}

// WorldRank returns this process's rank in MPI_COMM_WORLD.
func (c *Comm) WorldRank() int { return c.rank }

// worldRank translates a communicator-relative rank to a world rank.
func (c *Comm) worldRank(r int) int {
	if c.group == nil {
		return r
	}
	return c.group[r]
}

// localRank translates a world rank back into this communicator, or -1.
func (c *Comm) localRank(world int) int {
	if c.group == nil {
		return world
	}
	for i, w := range c.group {
		if w == world {
			return i
		}
	}
	return -1
}

// wireTag namespaces a user/algorithm tag by the communicator context.
func (c *Comm) wireTag(tag int) int { return c.ctx<<20 | tag }

// Proc returns the underlying simulated process.
func (c *Comm) Proc() *sim.Proc { return c.proc }

// Cluster returns the cluster this world runs on.
func (c *Comm) Cluster() *machine.Cluster { return c.w.cluster }

// Wtime returns this node's wall-clock reading — like MPI_Wtime it uses
// the node's own unsynchronized clock, so differences are only
// meaningful within one rank (the reason behind the paper's max-reduce
// measurement procedure).
func (c *Comm) Wtime() sim.Time { return c.w.cluster.LocalClock(c.rank) }

// Compute occupies this rank's CPU for d of simulated time, modeling
// application computation between communication phases.
func (c *Comm) Compute(d sim.Duration) { c.proc.Sleep(d) }

// as returns a view of the communicator with the cost class set, under
// which Send/Recv/Combine charge that operation's calibrated overheads.
// A view is a shallow copy made once per communicator and op, then
// reused. Every field but opClass and cost is fixed, so a view left
// behind when the views slice grows stays equivalent to its copy.
func (c *Comm) as(op machine.Op) *Comm {
	if c.opClass == op {
		return c
	}
	sh := c.sh
	for i := range sh.views {
		if sh.views[i].opClass == op {
			return &sh.views[i]
		}
	}
	sh.views = append(sh.views, *c)
	v := &sh.views[len(sh.views)-1]
	v.opClass, v.cost = op, c.w.cluster.Machine().Costs(op)
	return v
}

// Send transmits data to dst with the given tag. Messages up to the
// machine's eager limit are buffered: the call returns once the sender
// CPU has handed the data off, and delivery proceeds at the fabric's
// pace. Larger messages use rendezvous-style flow control: the call
// blocks until the data has left the node, as MPI_Send did on all three
// machines — without this a looping sender would pre-book the network
// arbitrarily far ahead.
func (c *Comm) Send(dst, tag int, data []byte) {
	txDone := c.inject(dst, tag, data)
	if len(data) > c.w.eagerLimit {
		if wait := txDone.Sub(c.proc.Now()); wait > 0 {
			c.proc.Sleep(wait)
		}
	}
}

// inject charges the sender's per-message overhead, books the transfer
// on the fabric and schedules the message's delivery at dst. It returns
// the time injection completes, when the send buffer is free again.
func (c *Comm) inject(dst, tag int, data []byte) (txDone sim.Time) {
	cl := c.w.cluster
	wdst := c.worldRank(dst)
	c.proc.Sleep(cl.Jitter(c.cost.Send))
	txDone, arrive := cl.Net().TransferDetail(
		c.rank, wdst, len(data), c.proc.Now(), c.cost.InjMBs(len(data)))
	c.w.deliverAt(arrive, wdst, envelope{src: c.rank, tag: c.wireTag(tag), data: data})
	return txDone
}

// Recv blocks until a message matching (src, tag) — either may be a
// wildcard — has arrived and been processed, and returns its payload.
func (c *Comm) Recv(src, tag int) []byte {
	e := c.recvEnvelope(src, tag)
	return e.data
}

// RecvFrom is Recv returning the actual source (communicator-relative),
// for AnySource receives.
func (c *Comm) RecvFrom(src, tag int) (data []byte, from int) {
	e := c.recvEnvelope(src, tag)
	return e.data, c.localRank(e.src)
}

func (c *Comm) recvEnvelope(src, tag int) envelope {
	cl := c.w.cluster
	st := &c.w.ranks[c.rank]
	wsrc, wtag := c.wireMatch(src, tag)
	e, ok := st.take(wsrc, wtag)
	if !ok {
		req := st.post(cl.Kernel(), wsrc, wtag, "recv")
		e = req.done.Await(c.proc)
		st.release(req)
	}
	c.proc.Sleep(cl.Jitter(c.cost.Recv))
	return e
}

// wireMatch translates a receive's (src, tag), either possibly a
// wildcard, into the world rank and wire tag messages carry.
func (c *Comm) wireMatch(src, tag int) (wsrc, wtag int) {
	wsrc, wtag = src, tag
	if src != AnySource {
		wsrc = c.worldRank(src)
	}
	if tag != AnyTag {
		wtag = c.wireTag(tag)
	}
	return wsrc, wtag
}

// Sendrecv exchanges messages with two peers (possibly the same):
// it injects the outgoing message, then blocks for the incoming one.
func (c *Comm) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) []byte {
	c.Send(dst, sendTag, data)
	return c.Recv(src, recvTag)
}

// Combine implements coll.Transport: it applies the reduction step and
// charges the machine's arithmetic cost for this operation class. Under
// opaque payloads the cost is still charged but the data untouched —
// the merged operand has a's length either way.
func (c *Comm) Combine(a, b []byte, f coll.Combiner) []byte {
	if cost := c.cost.Combine(len(a)); cost > 0 {
		c.proc.Sleep(c.w.cluster.Jitter(cost))
	}
	if c.w.opaque {
		return a
	}
	return f(a, b)
}

// OpaquePayloads implements coll.OpaqueTransport: it reports whether
// this world runs with length-only payloads (RunOptions.OpaquePayloads).
func (c *Comm) OpaquePayloads() bool { return c.w.opaque }
