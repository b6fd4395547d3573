package mpi

import (
	"repro/internal/sim"
)

// Request is a handle to a nonblocking operation (MPI_Isend/MPI_Irecv),
// completed by Wait. A send request completes when the send buffer is
// reusable (data fully injected); a receive request completes when the
// message has arrived and been processed.
type Request struct {
	c      *Comm
	isSend bool
	// send completion
	txDone sim.Time
	// receive completion; recv goes back to its rank's pool once
	// Wait has read it
	recv *recvReq
	env  envelope
	done bool
}

// Isend starts a nonblocking send. The sender still pays its per-message
// CPU overhead (posting the descriptor); the network transfer proceeds
// in the background regardless of message size.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	return &Request{c: c, isSend: true, txDone: c.inject(dst, tag, data)}
}

// Irecv posts a nonblocking receive for a message matching (src, tag);
// wildcards are allowed.
func (c *Comm) Irecv(src, tag int) *Request {
	st := &c.w.ranks[c.rank]
	wsrc, wtag := c.wireMatch(src, tag)
	r := &Request{c: c}
	if e, ok := st.take(wsrc, wtag); ok {
		r.env = e
		r.done = true
		return r
	}
	r.recv = st.post(c.w.cluster.Kernel(), wsrc, wtag, "irecv")
	return r
}

// Wait blocks until the request completes. For receives it returns the
// message payload (charging the receive overhead); for sends it returns
// nil once the buffer is reusable.
func (r *Request) Wait() []byte {
	c := r.c
	if r.isSend {
		if wait := r.txDone.Sub(c.proc.Now()); wait > 0 {
			c.proc.Sleep(wait)
		}
		return nil
	}
	if !r.done {
		r.env = r.recv.done.Await(c.proc)
		c.w.ranks[c.rank].release(r.recv)
		r.recv = nil
		r.done = true
	}
	cl := c.w.cluster
	c.proc.Sleep(cl.Jitter(cl.Machine().RecvCost(c.opClass)))
	return r.env.data
}

// Test reports whether the request has completed without blocking. A
// completed receive must still be Wait()ed to retrieve the payload (and
// pay the processing cost).
func (r *Request) Test() bool {
	if r.isSend {
		return r.c.proc.Now() >= r.txDone
	}
	return r.done || r.recv.done.Resolved()
}

// Waitall completes all requests in order and returns the receive
// payloads (nil entries for sends) — MPI_Waitall.
func (c *Comm) Waitall(rs ...*Request) [][]byte {
	out := make([][]byte, len(rs))
	for i, r := range rs {
		out[i] = r.Wait()
	}
	return out
}
