package sim

// Latch is a countdown latch: processes Arrive, and everyone blocked in
// AwaitAll is released when the count reaches n. It is reusable: after
// opening, the next generation starts automatically.
//
// Latch models an idealized rendezvous with zero cost; it is used by the
// measurement harness for logical coordination. Machine-level barriers
// with real costs live in the coll package.
type Latch struct {
	k    *Kernel
	name string
	n    int
	gen  int
	cnt  int
	sig  *Signal
}

// NewLatch returns a latch for n participants.
func NewLatch(k *Kernel, name string, n int) *Latch {
	if n < 1 {
		panic("sim: latch size must be ≥ 1")
	}
	return &Latch{k: k, name: name, n: n, sig: NewSignal(k, name)}
}

// Arrive registers p and blocks it until all n participants of the
// current generation have arrived.
func (l *Latch) Arrive(p *Proc) {
	l.cnt++
	if l.cnt == l.n {
		done := l.sig
		l.cnt = 0
		l.gen++
		l.sig = NewSignal(l.k, l.name)
		done.Resolve(struct{}{})
		return
	}
	sig := l.sig
	sig.Await(p)
}

// Mailbox is an unbounded FIFO queue of T with blocking Get, used for
// simple producer/consumer coordination inside simulated nodes.
type Mailbox[T any] struct {
	k     *Kernel
	name  string
	items []T
	recvq []*Proc
}

// NewMailbox returns an empty mailbox.
func NewMailbox[T any](k *Kernel, name string) *Mailbox[T] {
	return &Mailbox[T]{k: k, name: name}
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) }

// Put enqueues v and wakes one blocked receiver, if any. It never
// blocks and may be called from event context.
func (m *Mailbox[T]) Put(v T) {
	m.items = append(m.items, v)
	if len(m.recvq) > 0 {
		w := m.recvq[0]
		m.recvq = m.recvq[:copy(m.recvq, m.recvq[1:])]
		m.k.wake(w, 0)
	}
}

// Get dequeues the oldest item, blocking p while the mailbox is empty.
func (m *Mailbox[T]) Get(p *Proc) T {
	for len(m.items) == 0 {
		m.recvq = append(m.recvq, p)
		p.park("mailbox", m.name)
	}
	v := m.items[0]
	m.items = m.items[:copy(m.items, m.items[1:])]
	return v
}
