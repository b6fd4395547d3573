package machine

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
)

// Cluster is an allocation of p nodes of a machine: a simulation kernel,
// the interconnect fabric, per-node clock skews, and (on the T3D) the
// hardwired barrier network. One MPI process runs per node, as in the
// paper's experiments.
type Cluster struct {
	mach *Machine
	k    *sim.Kernel
	net  *network.Network
	p    int
	skew []sim.Duration

	hw *hwBarrier
}

// NewCluster allocates p nodes of machine m. seed drives the
// deterministic skew/jitter randomness; the same seed reproduces the
// same run exactly.
func NewCluster(m *Machine, p int, seed int64) *Cluster {
	if p < 1 {
		panic("machine: cluster needs ≥ 1 node")
	}
	if p > m.MaxNodes() {
		panic(fmt.Sprintf("machine: %s allocation of %d exceeds the study's maximum of %d nodes",
			m.Name(), p, m.MaxNodes()))
	}
	k := sim.New(seed)
	topo := m.NewTopology(p)
	net := network.New(k, topo, m.Params().Net)
	c := &Cluster{mach: m, k: k, net: net, p: p, skew: make([]sim.Duration, p)}
	maxSkew := m.Params().ClockSkewMax
	if maxSkew > 0 {
		for i := range c.skew {
			c.skew[i] = sim.Duration(k.Rand().Int63n(int64(maxSkew)))
		}
	}
	if m.HardwareBarrier() {
		c.hw = &hwBarrier{k: k, n: p, cost: m.BarrierHardwareCost(p)}
		c.hw.reset()
	}
	return c
}

// Reset returns the cluster to the state NewCluster(m, p, seed)
// produces — kernel clock at zero, reseeded RNG, clean network
// occupancy, freshly drawn clock skews — while reusing the kernel,
// topology, and network storage. It mirrors NewCluster's RNG
// consumption order exactly (skews are drawn first), so a Reset cluster
// reproduces a fresh allocation bit for bit. The kernel must have been
// driven to completion first (sim.Kernel.Reset panics otherwise).
func (c *Cluster) Reset(seed int64) {
	c.k.Reset(seed)
	c.net.Reset()
	maxSkew := c.mach.Params().ClockSkewMax
	for i := range c.skew {
		c.skew[i] = 0
	}
	if maxSkew > 0 {
		for i := range c.skew {
			c.skew[i] = sim.Duration(c.k.Rand().Int63n(int64(maxSkew)))
		}
	}
	if c.hw != nil {
		c.hw.reset()
	}
}

// Machine returns the machine model.
func (c *Cluster) Machine() *Machine { return c.mach }

// Kernel returns the simulation kernel.
func (c *Cluster) Kernel() *sim.Kernel { return c.k }

// Net returns the fabric.
func (c *Cluster) Net() *network.Network { return c.net }

// Size returns the number of allocated nodes.
func (c *Cluster) Size() int { return c.p }

// LocalClock returns node rank's own wall clock at the current simulated
// instant. Nodes are not time-synchronized (paper §2): each has a fixed
// private offset, which is why the measurement procedure must max-reduce
// per-rank averages rather than subtract timestamps across nodes.
func (c *Cluster) LocalClock(rank int) sim.Time {
	return c.k.Now().Add(c.skew[rank])
}

// Jitter returns a software overhead d inflated by this run's OS noise
// model: a uniform random fraction in [0, JitterFrac).
func (c *Cluster) Jitter(d sim.Duration) sim.Duration {
	f := c.mach.p.JitterFrac
	if f <= 0 || d <= 0 {
		return d
	}
	return d + sim.Duration(c.k.Rand().Float64()*f*float64(d))
}

// HardwareBarrierEnter blocks proc until all p nodes have entered the
// hardwired barrier, then releases everyone after the AND-tree
// propagation cost. Panics if the machine has no barrier hardware.
func (c *Cluster) HardwareBarrierEnter(proc *sim.Proc) {
	if c.hw == nil {
		panic("machine: " + c.mach.Name() + " has no hardware barrier")
	}
	c.hw.enter(proc)
}

// hwBarrier models the T3D's dedicated AND-tree barrier network: a
// single-wire reduction whose completion time is independent of the data
// network and nearly independent of machine size. Two signals alternate
// between generations, re-armed in place: the next generation cannot
// complete before the previous one is released, so at most one release
// is pending, and the barrier itself is the handler that fires it.
type hwBarrier struct {
	k    *sim.Kernel
	n    int
	cnt  int
	cost sim.Duration
	sigs [2]sim.Signal
	cur  int // index of the signal the current generation awaits
}

func (b *hwBarrier) reset() {
	b.cnt, b.cur = 0, 0
	b.sigs[0].Init(b.k, "hw-barrier")
}

func (b *hwBarrier) enter(proc *sim.Proc) {
	b.cnt++
	sig := &b.sigs[b.cur]
	if b.cnt == b.n {
		// Last arrival: the AND-tree fires after the propagation cost.
		b.cnt = 0
		b.cur ^= 1
		b.sigs[b.cur].Init(b.k, "hw-barrier")
		b.k.Schedule(b.k.Now().Add(b.cost), b)
	}
	sig.Await(proc)
}

// Fire implements sim.Handler: it releases the completed generation.
func (b *hwBarrier) Fire() { b.sigs[b.cur^1].Resolve() }
