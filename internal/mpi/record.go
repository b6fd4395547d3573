package mpi

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/machine"
)

// stepKind is what one recorded step of a rank does.
type stepKind uint8

const (
	stepCall    stepKind = iota // a collective's entry: cost.Call
	stepSend                    // n bytes to peer with tag, under cost
	stepRecv                    // the message from peer with tag, under cost
	stepCombine                 // a reduction step over n bytes: cost.Combine(n)
	stepBarrier                 // the machine's hardware barrier
	stepMark                    // a Wtime reading
)

// step is one thing a rank does that costs simulated time or reads the
// clock, with the cost class (the communicator view's resolved costs)
// and byte length the simulation charges it by. The simulated time
// itself is drawn when the step is replayed.
type step struct {
	cost      *machine.Costs
	peer, tag int32
	n         int32
	kind      stepKind
}

// Script is one fragment of an SPMD program as each rank performs it:
// its sends, receives, combines, collective entries, hardware barriers
// and clock marks in program order. The paper's collectives are
// deterministic in (operation, algorithm, p, m), and every receive
// names its source and tag exactly, so a rank's steps do not depend on
// timing: recorded once, a script replays on any cluster of the machine
// and size it was recorded for, under any seed.
type Script struct {
	steps [][]step // per rank
}

// clockReadError is the panic of a clock read while recording.
type clockReadError string

func (e clockReadError) Error() string {
	return "mpi: Comm." + string(e) + " reads the simulated clock, which a recording rank does not have: " +
		"only Wtime can be recorded (as a mark); run clock-reading programs with Run"
}

// recordAbort unwinds a recording rank's goroutine when its recording
// failed elsewhere (a panic or a deadlock).
type recordAbort struct{}

// recorder runs a world's rank bodies with no simulated time, one rank
// at a time: a rank runs until it receives a message not yet sent, then
// hands the token straight to the next ready rank (or back to Record
// when none is ready). A rank's steps depend only on its own code and
// the messages it receives, which exact matching fixes, so the order in
// which ranks run does not change what is recorded.
//
// Recorders recycle through a pool with their world, step buffers,
// queues and channels, so a recording allocates little beyond its
// result and the ranks' goroutines.
type recorder struct {
	w     World
	comms []Comm
	views []Comm
	ranks []recRank
	// ready is a ring of the ranks to run, in order: ready[head] and the
	// n-1 after it. A rank is queued at most once (at the start, or when
	// the message it waits for is sent), so p slots suffice.
	ready   []int
	head, n int
	yield   chan struct{}
	steps   [][]step // part i's steps of rank r at i·p + r
	abort   bool
	failed  error // the first rank panic
}

// recRank is one recording rank: its goroutine's resume channel and the
// part it is recording.
type recRank struct {
	resume chan struct{}
	part   int
	done   bool
}

// add appends s to rank's steps in its current part.
func (rec *recorder) add(rank int, s step) {
	i := rec.ranks[rank].part*len(rec.ranks) + rank
	rec.steps[i] = append(rec.steps[i], s)
}

// send records a send and queues the message at dst, readying dst if it
// waits for it.
func (rec *recorder) send(c *Comm, dst, tag int, data []byte) {
	rec.add(c.rank, step{kind: stepSend, peer: int32(dst), tag: int32(tag), n: int32(len(data)), cost: c.cost})
	st := &rec.w.ranks[dst]
	st.unexpected = append(st.unexpected, envelope{src: c.rank, tag: tag, data: data})
	if r := &st.recv; r.waiting && r.src == c.rank && r.tag == tag {
		r.waiting = false
		rec.ready[(rec.head+rec.n)%len(rec.ready)] = dst
		rec.n++
	}
}

// recv records a receive and returns its message, switching to the next
// ready rank until the message has been sent.
func (rec *recorder) recv(c *Comm, src, tag int) []byte {
	rec.add(c.rank, step{kind: stepRecv, peer: int32(src), tag: int32(tag), cost: c.cost})
	st := &rec.w.ranks[c.rank]
	for {
		if e, ok := st.take(src, tag); ok {
			return e.data
		}
		r := &st.recv
		r.src, r.tag, r.waiting = src, tag, true
		rec.switchFrom()
		<-rec.ranks[c.rank].resume
		if rec.abort {
			panic(recordAbort{})
		}
	}
}

// switchFrom hands the token to the next ready rank, or back to Record
// when no rank is ready or the recording failed.
func (rec *recorder) switchFrom() {
	if !rec.abort && rec.n > 0 {
		next := rec.ready[rec.head]
		rec.head = (rec.head + 1) % len(rec.ready)
		rec.n--
		rec.ranks[next].resume <- struct{}{}
		return
	}
	rec.yield <- struct{}{}
}

// Record runs parts, in order, once on each of p ranks of machine m
// under the algorithm table algs (the zero Algorithms selects the
// vendor defaults), with no simulated time: sends go to an in-memory
// queue that receives match exactly, payloads are opaque, and each
// rank's steps are recorded instead of simulated. It returns one Script
// per part. A part may call any collective or point-to-point routine
// and Wtime; reading the clock any other way (Proc, Compute) panics.
//
// Record fails if a rank panics, or if the ranks deadlock: the error
// names each stuck rank and the (source, tag) it waits for. Either way
// every recording goroutine has exited when Record returns.
func Record(m *machine.Machine, p int, algs Algorithms, parts ...func(c *Comm)) ([]Script, error) {
	rec, _ := recorders.Get().(*recorder)
	if rec == nil {
		rec = &recorder{yield: make(chan struct{})}
	}
	defer recorders.Put(rec)
	rec.reset(m, p, algs, len(parts))
	for r := range rec.ranks {
		go rec.run(&rec.comms[r], parts)
	}
	rec.switchFrom()
	<-rec.yield

	err := rec.failed
	if err == nil {
		err = rec.deadlock()
	}
	if err != nil {
		// Unwind every rank still blocked or never started.
		rec.abort = true
		for r := range rec.ranks {
			if !rec.ranks[r].done {
				rec.ranks[r].resume <- struct{}{}
				<-rec.yield
			}
		}
		return nil, err
	}
	// Copy the steps out of the recycled buffers, into one slab.
	total := 0
	for _, s := range rec.steps {
		total += len(s)
	}
	flat := make([]step, 0, total)
	perRank := make([][]step, len(rec.steps))
	for i, s := range rec.steps {
		flat = append(flat, s...)
		perRank[i] = flat[len(flat)-len(s) : len(flat) : len(flat)]
	}
	scripts := make([]Script, len(parts))
	for i := range scripts {
		scripts[i].steps = perRank[i*p : (i+1)*p]
	}
	return scripts, nil
}

// recorders recycles recorders between recordings.
var recorders sync.Pool

// reset readies a recycled (or new) recorder to record nparts parts on
// p ranks of m under algs, keeping its buffers' capacity.
func (rec *recorder) reset(m *machine.Machine, p int, algs Algorithms, nparts int) {
	if algs == (Algorithms{}) {
		algs = DefaultAlgorithms(m)
	}
	w := &rec.w
	ranks := grow(w.ranks, p)
	*w = World{mach: m, rec: rec, ranks: ranks, algs: algs, opaque: true, eagerLimit: m.EagerLimit()}
	for r := range ranks {
		ranks[r] = rankState{w: w, rank: r, unexpected: ranks[r].unexpected[:0]}
	}
	rec.comms, rec.views = grow(rec.comms, p), grow(rec.views, 2*p)
	w.initComms(rec.comms, rec.views)
	rec.ranks, rec.ready = grow(rec.ranks, p), grow(rec.ready, p)
	for r := range rec.ranks {
		rr := &rec.ranks[r]
		if rr.resume == nil {
			rr.resume = make(chan struct{})
		}
		rr.part, rr.done = 0, false
		rec.ready[r] = r
	}
	rec.head, rec.n = 0, p
	rec.steps = grow(rec.steps, p*nparts)
	for i := range rec.steps {
		rec.steps[i] = rec.steps[i][:0]
	}
	rec.abort, rec.failed = false, nil
}

// grow returns s resliced to length n, reallocated only when its
// capacity is short. Elements kept from an earlier use are the
// caller's to reset.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// run is one recording rank's goroutine: it waits for the token, runs
// the parts and passes the token on when it finishes.
func (rec *recorder) run(c *Comm, parts []func(c *Comm)) {
	rr := &rec.ranks[c.rank]
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(recordAbort); !ok && rec.failed == nil {
				rec.failed = fmt.Errorf("mpi: recording %s panicked: %v", rankName(c.rank), r)
				rec.abort = true
			}
		}
		rr.done = true
		rec.switchFrom()
	}()
	<-rr.resume
	if rec.abort {
		panic(recordAbort{})
	}
	for i, part := range parts {
		rr.part = i
		part(c)
	}
}

// deadlock reports the ranks left waiting when no rank is ready, or nil
// when every rank finished.
func (rec *recorder) deadlock() error {
	var stuck []string
	for r := range rec.ranks {
		if !rec.ranks[r].done {
			st := &rec.w.ranks[r]
			stuck = append(stuck, fmt.Sprintf("%s (waiting: recv from %d tag %#x)", rankName(r), st.recv.src, st.recv.tag))
		}
	}
	if stuck == nil {
		return nil
	}
	return fmt.Errorf("mpi: recording deadlocked: %d rank(s) wait for messages never sent: %s",
		len(stuck), strings.Join(stuck, ", "))
}
