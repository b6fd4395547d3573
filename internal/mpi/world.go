package mpi

import (
	"fmt"
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

// rankState is the per-node messaging engine: the unexpected-message
// queue, matched in arrival order as MPI requires, the rank's posted
// receive and its rendezvous send. Both calls block, so a rank has at
// most one of each in progress. proc is the rank's process: a goroutine
// running the rank's code (Run), or a scripted process replaying its
// recorded steps (Player). The kernel-side steps below serve both
// alike. The rank also holds its cost-classed communicator views (see
// Comm.as).
type rankState struct {
	w          *World
	rank       int
	proc       *sim.Proc
	unexpected []envelope
	recv       postedRecv
	send       rendezvous
	views      []Comm
}

// postedRecv is a receive waiting for the message from src with tag. It
// is also the sim.Handler that completes the receive while the rank
// stays suspended: deliver schedules it at the arrival instant, and
// Fire charges the receive overhead and wakes the rank once, at its
// end.
type postedRecv struct {
	src, tag int
	waiting  bool
	st       *rankState
	cost     *machine.Costs // the receiving view's op costs
	env      envelope       // the matched message, once delivered
}

// Fire implements sim.Handler: it draws the receive overhead and
// schedules the rank's wakeup after it.
func (r *postedRecv) Fire() {
	cl := r.st.w.cluster
	cl.Kernel().Wake(r.st.proc, cl.Jitter(r.cost.Recv))
}

// deliver hands an arrived message to the posted receive it matches,
// or queues it as unexpected.
func (st *rankState) deliver(e envelope) {
	if r := &st.recv; r.waiting && r.src == e.src && r.tag == e.tag {
		r.waiting = false
		r.env = e
		k := st.w.cluster.Kernel()
		k.Schedule(k.Now(), r)
		return
	}
	st.unexpected = append(st.unexpected, e)
}

// receive receives the message from src with tag under cost. A message
// already queued costs the receive overhead now; otherwise the rank
// posts the receive and suspends once, and the posted receive's handler
// charges the overhead (see postedRecv.Fire). A goroutine rank gets the
// payload once it resumes; a scripted one returns at once and replays
// only the timing, so its result is meaningless.
func (st *rankState) receive(src, tag int, cost *machine.Costs) []byte {
	if e, ok := st.take(src, tag); ok {
		st.proc.Sleep(st.w.cluster.Jitter(cost.Recv))
		return e.data
	}
	r := &st.recv
	r.src, r.tag, r.cost, r.waiting = src, tag, cost, true
	st.proc.Suspend("recv")
	return r.env.data
}

// rendezvous is a rendezvous send in progress, and the sim.Handler that
// performs it while the sender stays suspended: the send schedules it
// for the end of the sender's CPU overhead, and Fire injects the
// message and wakes the rank once, when the data has left the node.
type rendezvous struct {
	st   *rankState
	cost *machine.Costs // the sending view's op costs
	dst  int
	env  envelope
}

// startRendezvous sends e to dst under flow control: the rank suspends
// while its handler injects the message overhead from now.
func (st *rankState) startRendezvous(cost *machine.Costs, dst int, e envelope, overhead sim.Duration) {
	s := &st.send
	s.cost, s.dst, s.env = cost, dst, e
	k := st.w.cluster.Kernel()
	k.Schedule(k.Now().Add(overhead), s)
	st.proc.Suspend("send")
}

// Fire implements sim.Handler. Injection takes at least one nanosecond
// for any message above the eager limit (PerByte of a positive size at
// a positive rate), so the wakeup always lies ahead; a zero-delay one
// would run the sender ahead of events already queued for this instant.
func (s *rendezvous) Fire() {
	st := s.st
	k := st.w.cluster.Kernel()
	wait := st.inject(s.cost, s.dst, s.env).Sub(k.Now())
	if wait <= 0 {
		panic(fmt.Sprintf("mpi: %s's rendezvous send of %d bytes left the node in %v: "+
			"its cost class's injection rate must be positive", st.proc.Name(), len(s.env.data), wait))
	}
	k.Wake(st.proc, wait)
}

// inject hands e to the network at the current time, at the injection
// rate of cost, and schedules its arrival at dst. It returns the time
// the data has left the node.
func (st *rankState) inject(cost *machine.Costs, dst int, e envelope) sim.Time {
	cl := st.w.cluster
	txDone, arrive := cl.Net().Transfer(
		st.rank, dst, len(e.data), cl.Kernel().Now(), cost.InjMBs(len(e.data)))
	st.w.deliverAt(arrive, dst, e)
	return txDone
}

// take removes and returns the first unexpected message from src with
// tag, if any.
func (st *rankState) take(src, tag int) (envelope, bool) {
	for i, e := range st.unexpected {
		if e.src == src && e.tag == tag {
			st.unexpected = append(st.unexpected[:i], st.unexpected[i+1:]...)
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

// World is one SPMD program over p ranks of a machine: run on a cluster
// by goroutine processes (Run) or scripted ones (Player), or recorded
// with no simulated time (Record).
type World struct {
	mach       *machine.Machine
	cluster    *machine.Cluster // nil while recording
	rec        *recorder        // non-nil while recording
	ranks      []rankState
	algs       Algorithms
	opaque     bool
	eagerLimit int       // the machine's, resolved once per world
	free       *delivery // recycled deliveries
}

// newWorld returns a world of p ranks on m under algs; the zero
// Algorithms selects the machine's vendor defaults.
func newWorld(m *machine.Machine, p int, algs Algorithms) *World {
	if algs == (Algorithms{}) {
		algs = DefaultAlgorithms(m)
	}
	w := &World{mach: m, ranks: make([]rankState, p), algs: algs, eagerLimit: m.EagerLimit()}
	for r := range w.ranks {
		st := &w.ranks[r]
		st.w, st.rank = w, r
		st.recv.st, st.send.st = st, st
	}
	return w
}

// initComms makes comms (one per rank) each rank's world communicator.
// Each rank gets room for two cost-classed views (the measured
// operation and the barrier) in views, twice as long.
func (w *World) initComms(comms, views []Comm) {
	p2p := w.mach.Costs(machine.OpP2P)
	for r := range comms {
		w.ranks[r].views = views[2*r : 2*r : 2*r+2]
		comms[r] = Comm{w: w, rank: r, opClass: machine.OpP2P, cost: p2p}
	}
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

// Run executes body as p concurrent rank processes on a fresh cluster of
// machine m and drives the simulation to completion. It returns an error
// if any rank panics or the program deadlocks.
func Run(m *machine.Machine, p int, seed int64, body func(c *Comm)) error {
	return RunCluster(machine.NewCluster(m, p, seed), Algorithms{}, body)
}

// RunCluster is Run over an existing cluster (which carries kernel
// state, clock skews, and network occupancy) under the algorithm table
// algs; the zero Algorithms selects the machine's vendor defaults. Each
// rank is a goroutine process, so body may read the clock and real
// payloads at any point. A program that only times collectives is
// cheaper recorded once and replayed (Record, Player).
func RunCluster(cl *machine.Cluster, algs Algorithms, body func(c *Comm)) error {
	return runCluster(cl, algs, false, body)
}

// runCluster is RunCluster, with opaque payloads (see Comm.Combine and
// coll.OpaqueTransport) if opaque is set.
func runCluster(cl *machine.Cluster, algs Algorithms, opaque bool, body func(c *Comm)) error {
	w := newWorld(cl.Machine(), cl.Size(), algs)
	w.cluster, w.opaque = cl, opaque
	comms := make([]Comm, cl.Size())
	w.initComms(comms, make([]Comm, 2*len(comms)))
	k := cl.Kernel()
	for r := range comms {
		c := &comms[r]
		c.proc = k.Go(rankName(r), func(*sim.Proc) { body(c) })
		w.ranks[r].proc = c.proc
	}
	return k.Run()
}
