package mpi

import (
	"strconv"

	"repro/internal/machine"
	"repro/internal/sim"
)

// envelope is a delivered message awaiting (or matching) a receive.
type envelope struct {
	src  int
	tag  int
	data []byte
}

// recvReq is a posted receive awaiting a matching message. Each rank
// recycles its own (rankState.post and release), future included.
type recvReq struct {
	src  int // or AnySource
	tag  int // or AnyTag
	done sim.Future[envelope]
	next *recvReq // free-list link while recycled
}

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// rankState is the per-node messaging engine: the unexpected-message
// queue and the posted-receive queue, matched in arrival/post order as
// MPI requires, plus the rank's recycled receives.
type rankState struct {
	unexpected []envelope
	posted     []*recvReq
	free       *recvReq // recycled receives
	first      recvReq  // the rank's first receive: blocking code never needs another
}

// post queues a receive for (src, tag) in wire terms, named name in
// deadlock reports. The caller awaits its future and then releases it.
func (rs *rankState) post(k *sim.Kernel, src, tag int, name string) *recvReq {
	req := rs.free
	if req == nil {
		req = new(recvReq)
	} else {
		rs.free = req.next
		req.next = nil
	}
	req.src, req.tag = src, tag
	req.done.Init(k, name)
	rs.posted = append(rs.posted, req)
	return req
}

// release recycles a receive whose future has resolved and been read.
func (rs *rankState) release(req *recvReq) {
	*req = recvReq{next: rs.free}
	rs.free = req
}

func match(src, tag int, e envelope) bool {
	return (src == AnySource || src == e.src) && (tag == AnyTag || tag == e.tag)
}

// deliver hands an arrived message to the first matching posted receive,
// or queues it as unexpected.
func (rs *rankState) deliver(e envelope) {
	for i, req := range rs.posted {
		if match(req.src, req.tag, e) {
			rs.posted = append(rs.posted[:i], rs.posted[i+1:]...)
			req.done.Resolve(e)
			return
		}
	}
	rs.unexpected = append(rs.unexpected, e)
}

// take removes and returns the first unexpected message matching
// (src, tag), if any.
func (rs *rankState) take(src, tag int) (envelope, bool) {
	for i, e := range rs.unexpected {
		if match(src, tag, e) {
			rs.unexpected = append(rs.unexpected[:i], rs.unexpected[i+1:]...)
			return e, true
		}
	}
	return envelope{}, false
}

// delivery is a message in flight: the event that hands env to rank st
// when it arrives. Deliveries recycle through their world's free list,
// so a send schedules its arrival without allocating a closure.
type delivery struct {
	w    *World
	st   *rankState
	env  envelope
	next *delivery // free-list link while recycled
}

// Fire implements sim.Handler: it recycles d and delivers its message.
func (d *delivery) Fire() {
	w, st, e := d.w, d.st, d.env
	*d = delivery{w: w, next: w.free}
	w.free = d
	st.deliver(e)
}

// deliveryChunk is how many deliveries a world allocates at once when
// its free list runs dry.
const deliveryChunk = 64

// World is one SPMD program execution: p rank processes over a cluster.
type World struct {
	cluster *machine.Cluster
	ranks   []rankState
	algs    Algorithms
	opaque  bool
	free    *delivery // recycled deliveries
}

// deliverAt schedules e's arrival at world rank dst for time t.
func (w *World) deliverAt(t sim.Time, dst int, e envelope) {
	d := w.free
	if d == nil {
		chunk := make([]delivery, deliveryChunk)
		for i := range chunk {
			chunk[i] = delivery{w: w, next: d}
			d = &chunk[i]
		}
	}
	w.free = d.next
	d.next = nil
	d.st, d.env = &w.ranks[dst], e
	w.cluster.Kernel().Schedule(t, d)
}

// rankNames holds the process names of the first ranks, so spawning a
// world formats no strings.
var rankNames = func() []string {
	names := make([]string, 256)
	for r := range names {
		names[r] = "rank-" + strconv.Itoa(r)
	}
	return names
}()

func rankName(r int) string {
	if r < len(rankNames) {
		return rankNames[r]
	}
	return "rank-" + strconv.Itoa(r)
}

// RunOptions bundles the execution knobs of one SPMD run.
type RunOptions struct {
	// Algorithms is the collective algorithm table; the zero value
	// selects the machine's vendor defaults.
	Algorithms Algorithms
	// OpaquePayloads declares that the rank bodies never read message
	// payload contents — only lengths matter. The collectives then skip
	// payload byte movement (staging buffers come from the shared zero
	// arena, reductions charge their simulated cost without touching
	// data), which is what the measurement harness wants: its buffers
	// are all zeros and its results are discarded. Simulated timings
	// are identical either way, because no cost in the model depends on
	// payload contents.
	OpaquePayloads bool
}

// Run executes body as p concurrent rank processes on a fresh cluster of
// machine m and drives the simulation to completion. It returns an error
// if any rank panics or the program deadlocks.
func Run(m *machine.Machine, p int, seed int64, body func(c *Comm)) error {
	return RunCluster(machine.NewCluster(m, p, seed), body)
}

// RunCluster is Run over an existing cluster (which carries kernel
// state, clock skews, and network occupancy), using the machine's
// default algorithm table.
func RunCluster(cl *machine.Cluster, body func(c *Comm)) error {
	return RunWithAlgorithms(cl, DefaultAlgorithms(cl.Machine()), body)
}

// RunWithAlgorithms is RunCluster with an explicit algorithm table,
// used by the ablation benchmarks to compare collective algorithms on
// the same machine.
func RunWithAlgorithms(cl *machine.Cluster, algs Algorithms, body func(c *Comm)) error {
	return RunWith(cl, RunOptions{Algorithms: algs}, body)
}

// RunWith is RunCluster with explicit options.
func RunWith(cl *machine.Cluster, opt RunOptions, body func(c *Comm)) error {
	if opt.Algorithms == (Algorithms{}) {
		opt.Algorithms = DefaultAlgorithms(cl.Machine())
	}
	p := cl.Size()
	w := &World{
		cluster: cl,
		ranks:   make([]rankState, p),
		algs:    opt.Algorithms,
		opaque:  opt.OpaquePayloads,
	}
	// Each rank's communicator starts with room for two cost-classed
	// views (the measured operation and the barrier) carved from one
	// slab.
	comms := make([]Comm, p)
	shared := make([]commShared, p)
	views := make([]Comm, 2*p)
	for r := range w.ranks {
		w.ranks[r].free = &w.ranks[r].first
		shared[r].views = views[2*r : 2*r : 2*r+2]
		comms[r] = Comm{w: w, rank: r, opClass: machine.OpP2P, sh: &shared[r]}
		c := &comms[r]
		cl.Kernel().Go(rankName(r), func(proc *sim.Proc) {
			c.proc = proc
			body(c)
		})
	}
	return cl.Kernel().Run()
}
