// Package machine defines the three multicomputers evaluated in the
// paper — the IBM SP2, the Cray T3D, and the Intel Paragon — as
// parameter sets over the network fabric, plus the per-operation cost
// model of each vendor's MPI messaging layer.
//
// Hardware constants (hop latency, link bandwidth, special hardware such
// as the T3D's hardwired barrier tree and block-transfer engine) come
// straight from the paper (§4, §5) and its references. Software
// constants — per-message CPU overheads and effective per-node injection
// bandwidths, which differ per collective because each vendor MPI used a
// different code path per operation — are calibrated against the paper's
// own fitted expressions (Table 3). docs/ARCHITECTURE.md
// ("Substitutions") documents this substitution: without the 1990s
// hardware the paper's closed forms are the only available ground truth.
package machine

import (
	"fmt"
	"math"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Op names a collective (or point-to-point) operation class for cost
// lookup. These are the seven operations the paper evaluates plus the
// extension operations we also implement.
type Op string

// Operation classes.
const (
	OpP2P       Op = "p2p"
	OpBarrier   Op = "barrier"
	OpBroadcast Op = "broadcast"
	OpGather    Op = "gather"
	OpScatter   Op = "scatter"
	OpAlltoall  Op = "alltoall" // the paper's "total exchange"
	OpReduce    Op = "reduce"
	OpScan      Op = "scan"
	OpAllgather Op = "allgather"
	OpAllreduce Op = "allreduce"
)

// Ops lists the seven operations evaluated in the paper, in the order
// they appear in Table 3.
var Ops = []Op{OpBarrier, OpBroadcast, OpGather, OpScatter, OpReduce, OpScan, OpAlltoall}

// TopoKind selects the interconnect family of a machine.
type TopoKind int

// Interconnect families of the three machines.
const (
	TopoOmega TopoKind = iota // IBM SP2 multistage High Performance Switch
	TopoTorus                 // Cray T3D 3-D torus
	TopoMesh                  // Intel Paragon 2-D mesh
)

// Tuning holds the per-operation software cost parameters of a vendor
// MPI code path. Zero values fall back to the machine-wide defaults.
type Tuning struct {
	// SendOverhead is the sender CPU time per message on this code
	// path. Zero means the machine default.
	SendOverhead sim.Duration
	// RecvOverhead is the receiver CPU time per message.
	RecvOverhead sim.Duration
	// InjMBs is the effective per-node injection/ejection bandwidth in
	// MB/s seen by this operation (protocol processing and memory
	// copies included). Zero means the machine default.
	InjMBs float64
	// BigInjMBs, if nonzero, replaces InjMBs for messages of at least
	// BigThreshold bytes (the T3D's block-transfer engine).
	BigInjMBs    float64
	BigThreshold int
	// CombinePerByte is the per-byte cost of the arithmetic combine
	// step (reduce, scan) on this machine's CPU.
	CombinePerByte sim.Duration // per byte, in ns scaled: use FromMicros(x)/1000 style
	// CallOverhead is a fixed per-collective-call CPU cost at every
	// rank (argument checking, buffer setup, communicator lookup). It
	// is the constant term of the paper's startup-latency fits.
	CallOverhead sim.Duration
}

// Params fully describes a machine model.
type Params struct {
	Name     string
	Topo     TopoKind
	MaxNodes int // largest allocation the paper had (64 on the T3D)

	Net network.Params

	// Machine-wide default software overheads per message.
	SendOverhead sim.Duration
	RecvOverhead sim.Duration

	// HardwareBarrier enables the T3D's dedicated AND-tree barrier
	// network: Barrier cost = BarrierBase + BarrierPerLog·log2(p),
	// independent of the data network.
	HardwareBarrier bool
	BarrierBase     sim.Duration
	BarrierPerLog   sim.Duration

	// NodeMFLOPS is the sustained floating-point rate of one node in
	// MFLOP/s, used by application workloads (the STAP pipeline) to
	// charge computation time. Era-typical sustained rates: the SP2's
	// POWER2 ≈ 100, the T3D's Alpha EV4 ≈ 60, the Paragon's i860XP ≈ 30.
	NodeMFLOPS float64

	// EagerLimit is the message size up to which sends are buffered
	// (the call returns after the CPU copy). Above it the send blocks
	// until the data has left the node — rendezvous-style flow control,
	// which is what keeps a looping sender from running unboundedly
	// ahead of the network. Zero means 4 KB, the era-typical threshold.
	EagerLimit int

	// ClockSkewMax is the maximum per-node clock offset; the paper's
	// nodes were not time-synchronized, which is why its measurement
	// procedure uses a max-reduce of per-rank averages.
	ClockSkewMax sim.Duration
	// JitterFrac adds a uniform random fraction to software overheads,
	// modeling OS interference (§9 factor two).
	JitterFrac float64

	// Tunings holds per-operation overrides.
	Tunings map[Op]Tuning
}

// Machine is an immutable machine description.
type Machine struct {
	p Params
}

// New validates params and returns a machine.
func New(p Params) *Machine {
	if p.Name == "" || p.MaxNodes < 2 {
		panic("machine: invalid params")
	}
	if p.Tunings == nil {
		p.Tunings = map[Op]Tuning{}
	}
	return &Machine{p: p}
}

// Name returns the machine name ("SP2", "T3D", "Paragon").
func (m *Machine) Name() string { return m.p.Name }

// MaxNodes returns the largest machine size available to the study.
func (m *Machine) MaxNodes() int { return m.p.MaxNodes }

// Params returns a copy of the machine parameters.
func (m *Machine) Params() Params { return m.p }

// HardwareBarrier reports whether a dedicated barrier network exists.
func (m *Machine) HardwareBarrier() bool { return m.p.HardwareBarrier }

// BarrierHardwareCost returns the hardwired-barrier completion cost for
// p participating nodes.
func (m *Machine) BarrierHardwareCost(p int) sim.Duration {
	return m.p.BarrierBase + sim.Duration(float64(m.p.BarrierPerLog)*math.Log2(float64(p)))
}

func (m *Machine) tuning(op Op) Tuning { return m.p.Tunings[op] }

// SendCost returns the sender CPU time for one message of op class op.
func (m *Machine) SendCost(op Op) sim.Duration {
	if t := m.tuning(op); t.SendOverhead != 0 {
		return t.SendOverhead
	}
	return m.p.SendOverhead
}

// RecvCost returns the receiver CPU time for one message.
func (m *Machine) RecvCost(op Op) sim.Duration {
	if t := m.tuning(op); t.RecvOverhead != 0 {
		return t.RecvOverhead
	}
	return m.p.RecvOverhead
}

// InjMBs returns the effective injection bandwidth for a message of size
// bytes on op's code path.
func (m *Machine) InjMBs(op Op, size int) float64 {
	t := m.tuning(op)
	mbs := t.InjMBs
	if mbs == 0 {
		mbs = m.p.Net.InjectionMBs
	}
	if t.BigInjMBs != 0 && t.BigThreshold > 0 && size >= t.BigThreshold {
		mbs = t.BigInjMBs
	}
	return mbs
}

// CombineCost returns the arithmetic combine time for size bytes.
func (m *Machine) CombineCost(op Op, size int) sim.Duration {
	t := m.tuning(op)
	return sim.Duration(int64(t.CombinePerByte) * int64(size))
}

// CallCost returns the fixed per-call setup cost of a collective.
func (m *Machine) CallCost(op Op) sim.Duration { return m.tuning(op).CallOverhead }

// EagerLimit returns the largest message size sent without rendezvous
// flow control.
func (m *Machine) EagerLimit() int {
	if m.p.EagerLimit > 0 {
		return m.p.EagerLimit
	}
	return 4096
}

// ComputeTime returns the simulated time to execute flops floating-point
// operations on one node at its sustained rate.
func (m *Machine) ComputeTime(flops float64) sim.Duration {
	rate := m.p.NodeMFLOPS
	if rate <= 0 {
		rate = 50
	}
	return sim.Duration(flops / rate * 1e3) // MFLOP/s → ns per flop
}

// NewTopology builds the interconnect for at least n nodes.
func (m *Machine) NewTopology(n int) topology.Topology {
	switch m.p.Topo {
	case TopoOmega:
		return topology.OmegaForNodes(n)
	case TopoTorus:
		return topology.TorusForNodes(n)
	case TopoMesh:
		return topology.MeshForNodes(n)
	}
	panic(fmt.Sprintf("machine: unknown topology kind %d", m.p.Topo))
}

// Log2Ceil returns ⌈log2(p)⌉ for p ≥ 1; collective tree depths.
func Log2Ceil(p int) int {
	d := 0
	for v := 1; v < p; v *= 2 {
		d++
	}
	return d
}
