package sim

// Future is a one-shot completion carrying a value of type T. Processes
// block on Await; any context (event callback or process) may Resolve it
// exactly once. Multiple waiters are woken in FIFO order via zero-delay
// events. The first waiter is held inline, so the common single-waiter
// future allocates nothing to wait on.
type Future[T any] struct {
	k        *Kernel
	resolved bool
	value    T
	first    *Proc   // first waiter, if any
	more     []*Proc // later waiters, in arrival order
	name     string
}

// Init makes f an unresolved future on kernel k, named name in deadlock
// reports. A future is embedded by value in the object that owns it;
// Init also re-arms one whose waiters have resumed, for reuse.
func (f *Future[T]) Init(k *Kernel, name string) {
	*f = Future[T]{k: k, name: name, more: f.more[:0]}
}

// Resolve completes the future with v and wakes all waiters. Resolving
// twice panics: a future models a single event.
func (f *Future[T]) Resolve(v T) {
	if f.resolved {
		panic("sim: future " + f.name + " resolved twice")
	}
	f.resolved = true
	f.value = v
	if f.first == nil {
		return
	}
	f.k.wake(f.first, 0)
	f.first = nil
	for i, w := range f.more {
		f.k.wake(w, 0)
		f.more[i] = nil
	}
	f.more = f.more[:0]
}

// Await blocks p until the future resolves and returns its value. If the
// future is already resolved it returns immediately without yielding.
func (f *Future[T]) Await(p *Proc) T {
	if !f.resolved {
		if f.first == nil {
			f.first = p
		} else {
			f.more = append(f.more, p)
		}
		p.park("future", f.name)
	}
	return f.value
}

// Signal is a broadcast condition with no payload.
type Signal = Future[struct{}]
