package sim

// Handler is an event callback: the kernel calls Fire when the event's
// time is reached. Kernel.Schedule stores the handler by value in the
// event queue, so a caller that recycles its handler objects (the MPI
// layer's message deliveries) schedules events with no allocation.
type Handler interface {
	Fire()
}

// funcHandler adapts a plain callback to Handler; Kernel.At schedules
// through it. A func value is pointer-shaped, so the conversion to the
// interface allocates nothing beyond the closure itself.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// event is the payload of a scheduled event: a callback, or a process
// wakeup (proc non-nil, h nil) so a sleeping process rescheduling
// itself allocates nothing.
type event struct {
	h    Handler
	proc *Proc
}

// heapEntry orders one pending event. Events with equal times execute
// in scheduling order (seq), which makes zero-delay wakeups FIFO and the
// whole simulation deterministic. The sort key lives in the entry
// itself, so a sift compares adjacent heap memory and never touches the
// payload in the slab.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32 // index of the payload in eventQueue.slab
}

func (a *heapEntry) less(b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is the kernel's pending-event store: a 4-ary min-heap of
// (at, seq, slot) entries over a slab of payloads. Sifts move 24-byte
// entries whose keys are compared in place; payloads stay put and their
// slots recycle through a free list, so a steady-state simulation
// schedules millions of events with zero allocations. A 4-ary heap
// halves the tree depth of a binary heap, which wins on the push-heavy
// mix simulations produce.
type eventQueue struct {
	slab []event
	heap []heapEntry
	free []int32 // recycled slab slots (LIFO free list)
}

func (q *eventQueue) len() int { return len(q.heap) }

// minTime returns the time of the earliest pending event; the queue
// must be non-empty.
func (q *eventQueue) minTime() Time { return q.heap[0].at }

// push schedules e at (at, seq), recycling a freed slab slot when one
// exists.
func (q *eventQueue) push(at Time, seq uint64, e event) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	q.slab[slot] = e
	q.heap = append(q.heap, heapEntry{at: at, seq: seq, slot: slot})
	q.up(len(q.heap) - 1)
}

// pop removes the earliest event and returns its time and payload; the
// queue must be non-empty. The vacated slot is cleared (dropping the
// handler and proc references for the GC) and pushed onto the free
// list.
func (q *eventQueue) pop() (Time, event) {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.heap = h[:last]
	if last > 0 {
		q.down(0)
	}
	e := q.slab[top.slot]
	q.slab[top.slot] = event{}
	q.free = append(q.free, top.slot)
	return top.at, e
}

// reset empties the queue but keeps the slab, heap, and free-list
// capacity for reuse.
func (q *eventQueue) reset() {
	clear(q.slab)
	q.slab = q.slab[:0]
	q.heap = q.heap[:0]
	q.free = q.free[:0]
}

// up sifts the entry at i toward the root, holding it aside and moving
// each larger parent down one level instead of swapping.
func (q *eventQueue) up(i int) {
	h := q.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// down sifts the entry at i toward the leaves, moving the smallest
// child up one level per step.
func (q *eventQueue) down(i int) {
	h := q.heap
	n := len(h)
	e := h[i]
	for {
		lo := 4*i + 1
		if lo >= n {
			break
		}
		hi := lo + 4
		if hi > n {
			hi = n
		}
		min := lo
		for c := lo + 1; c < hi; c++ {
			if h[c].less(&h[min]) {
				min = c
			}
		}
		if !h[min].less(&e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}
