package sim

// Signal is a one-shot broadcast condition. Processes block on Await;
// any context (event callback or process) may Resolve it exactly once.
// Multiple waiters are woken in FIFO order via zero-delay wakeups. The
// first waiter is held inline, so the common single-waiter signal
// allocates nothing to wait on.
type Signal struct {
	k        *Kernel
	resolved bool
	first    *Proc   // first waiter, if any
	more     []*Proc // later waiters, in arrival order
	name     string
}

// Init makes s an unresolved signal on kernel k, named name in deadlock
// reports. A signal is embedded by value in the object that owns it;
// Init also re-arms one whose waiters have resumed, for reuse.
func (s *Signal) Init(k *Kernel, name string) {
	*s = Signal{k: k, name: name, more: s.more[:0]}
}

// Resolve completes the signal and wakes all waiters. Resolving twice
// panics: a signal models a single event.
func (s *Signal) Resolve() {
	if s.resolved {
		panic("sim: signal " + s.name + " resolved twice")
	}
	s.resolved = true
	if s.first == nil {
		return
	}
	s.k.Wake(s.first, 0)
	s.first = nil
	for i, w := range s.more {
		s.k.Wake(w, 0)
		s.more[i] = nil
	}
	s.more = s.more[:0]
}

// Await suspends p until the signal resolves. If it is already resolved
// a goroutine process returns immediately without yielding, and a
// scripted one is woken at once, so its handler returns and fires again
// either way.
func (s *Signal) Await(p *Proc) {
	if s.resolved {
		if p.h != nil {
			s.k.Wake(p, 0)
		}
		return
	}
	if s.first == nil {
		s.first = p
	} else {
		s.more = append(s.more, p)
	}
	p.park("signal", s.name)
}
