package sim

// Resource is a counted resource with FIFO admission, modeling things
// like a node CPU, a DMA engine, or an adapter send queue. Acquire blocks
// the calling process until a unit is available; Release may be called
// from any context.
type Resource struct {
	k       *Kernel
	name    string
	cap     int
	inUse   int
	waiters []*Proc
}

// NewResource returns a resource with the given capacity (≥ 1).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be ≥ 1")
	}
	return &Resource{k: k, name: name, cap: capacity}
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Acquire obtains one unit, blocking p in FIFO order behind earlier
// requesters if none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.park("resource", r.name)
	// Woken by Release, which transferred the unit to us already.
}

// Release returns one unit. If processes are queued, ownership of the
// unit transfers directly to the head waiter, which is woken with a
// zero-delay event.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[:copy(r.waiters, r.waiters[1:])]
		r.k.wake(w, 0)
		return // unit stays accounted as in use, now owned by w
	}
	r.inUse--
}

// Use runs fn while holding one unit of the resource.
func (r *Resource) Use(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release()
	fn()
}
