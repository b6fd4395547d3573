package mpi

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/machine"
)

// Algorithms selects the collective algorithm per operation, mirroring
// the vendor MPI implementations the paper measured. Names come from the
// coll registries, plus coll.AlgHardware for the T3D barrier circuit.
type Algorithms struct {
	Barrier   string
	Bcast     string
	Gather    string
	Scatter   string
	Alltoall  string
	Reduce    string
	Scan      string
	Allgather string
	Allreduce string
}

// DefaultAlgorithms returns the algorithm table of a machine's vendor
// MPI, as the paper describes it:
//
//   - Tree-based broadcast/reduce/barrier everywhere (§8: "a treelike
//     algorithm is usually employed"; EPCC MPI uses an unbalanced tree
//     for barrier and broadcast, a binary tree for reduce [6]) — except
//     the T3D barrier, which is the dedicated hardware circuit.
//   - Linear gather/scatter and pairwise total exchange, whose O(p)
//     startup the paper observes on all three machines.
//   - Recursive-doubling scan (logarithmic startup, Fig. 1e).
func DefaultAlgorithms(m *machine.Machine) Algorithms {
	a := Algorithms{
		Barrier:   coll.AlgTree,
		Bcast:     coll.AlgBinomial,
		Gather:    coll.AlgLinear,
		Scatter:   coll.AlgLinear,
		Alltoall:  coll.AlgPairwise,
		Reduce:    coll.AlgBinomial,
		Scan:      coll.AlgRecursiveDoubling,
		Allgather: coll.AlgRing,
		Allreduce: coll.AlgReduceBcast,
	}
	if m.HardwareBarrier() {
		a.Barrier = coll.AlgHardware
	}
	return a
}

// With returns a copy of a with op's algorithm replaced by name. It
// panics on an operation that has no algorithm slot (p2p).
func (a Algorithms) With(op machine.Op, name string) Algorithms {
	switch op {
	case machine.OpBarrier:
		a.Barrier = name
	case machine.OpBroadcast:
		a.Bcast = name
	case machine.OpGather:
		a.Gather = name
	case machine.OpScatter:
		a.Scatter = name
	case machine.OpAlltoall:
		a.Alltoall = name
	case machine.OpReduce:
		a.Reduce = name
	case machine.OpScan:
		a.Scan = name
	case machine.OpAllgather:
		a.Allgather = name
	case machine.OpAllreduce:
		a.Allreduce = name
	default:
		panic(fmt.Sprintf("mpi: operation %q has no algorithm slot", op))
	}
	return a
}

// Get returns the algorithm selected for op (the inverse of With).
func (a Algorithms) Get(op machine.Op) string {
	switch op {
	case machine.OpBarrier:
		return a.Barrier
	case machine.OpBroadcast:
		return a.Bcast
	case machine.OpGather:
		return a.Gather
	case machine.OpScatter:
		return a.Scatter
	case machine.OpAlltoall:
		return a.Alltoall
	case machine.OpReduce:
		return a.Reduce
	case machine.OpScan:
		return a.Scan
	case machine.OpAllgather:
		return a.Allgather
	case machine.OpAllreduce:
		return a.Allreduce
	}
	panic(fmt.Sprintf("mpi: operation %q has no algorithm slot", op))
}

func lookup[V any](reg map[string]V, name, what string) V {
	v, ok := reg[name]
	if !ok {
		panic(fmt.Sprintf("mpi: unknown %s algorithm %q", what, name))
	}
	return v
}

// enter charges the fixed per-call setup cost of a collective and
// returns the cost-classed communicator the algorithm runs over.
func (c *Comm) enter(op machine.Op) *Comm {
	v := c.as(op)
	if cost := v.cost.Call; cost > 0 {
		if rec := c.w.rec; rec != nil {
			rec.add(c.rank, step{kind: stepCall, cost: v.cost})
		} else {
			c.proc.Sleep(c.w.cluster.Jitter(cost))
		}
	}
	return v
}

// Barrier blocks until all processes have entered it (MPI_Barrier). On
// the T3D this uses the hardwired AND-tree barrier network; elsewhere a
// message-based algorithm from the coll package.
func (c *Comm) Barrier() {
	if c.w.algs.Barrier == coll.AlgHardware {
		if rec := c.w.rec; rec != nil {
			if !c.w.mach.HardwareBarrier() {
				panic("mpi: " + c.w.mach.Name() + " has no hardware barrier")
			}
			rec.add(c.rank, step{kind: stepBarrier})
			return
		}
		c.w.cluster.HardwareBarrierEnter(c.proc)
		return
	}
	lookup(coll.Barriers, c.w.algs.Barrier, "barrier")(c.enter(machine.OpBarrier))
}

// Bcast broadcasts data from root to all processes (MPI_Bcast); every
// rank returns the message.
func (c *Comm) Bcast(root int, data []byte) []byte {
	return lookup(coll.Bcasts, c.w.algs.Bcast, "bcast")(c.enter(machine.OpBroadcast), root, data)
}

// Gather collects one equal-size block per rank at root (MPI_Gather);
// root returns blocks in rank order, others nil.
func (c *Comm) Gather(root int, mine []byte) [][]byte {
	return lookup(coll.Gathers, c.w.algs.Gather, "gather")(c.enter(machine.OpGather), root, mine)
}

// Scatter distributes one block per rank from root (MPI_Scatter); the
// root passes p blocks in rank order, every rank returns its own.
func (c *Comm) Scatter(root int, blocks [][]byte) []byte {
	return lookup(coll.Scatters, c.w.algs.Scatter, "scatter")(c.enter(machine.OpScatter), root, blocks)
}

// Alltoall performs total exchange (MPI_Alltoall): every rank passes p
// blocks (one per destination) and returns p blocks (one per source).
func (c *Comm) Alltoall(blocks [][]byte) [][]byte {
	return lookup(coll.Alltoalls, c.w.algs.Alltoall, "alltoall")(c.enter(machine.OpAlltoall), blocks)
}

// Reduce combines contributions elementwise with op onto root
// (MPI_Reduce); root returns the result, others nil.
func (c *Comm) Reduce(root int, mine []byte, op ReduceOp, dt Datatype) []byte {
	return lookup(coll.Reduces, c.w.algs.Reduce, "reduce")(
		c.enter(machine.OpReduce), root, mine, op.Combiner(dt))
}

// Scan computes the inclusive prefix reduction (MPI_Scan).
func (c *Comm) Scan(mine []byte, op ReduceOp, dt Datatype) []byte {
	return lookup(coll.Scans, c.w.algs.Scan, "scan")(
		c.enter(machine.OpScan), mine, op.Combiner(dt))
}

// Allgather collects one block per rank at every rank (MPI_Allgather).
func (c *Comm) Allgather(mine []byte) [][]byte {
	return lookup(coll.Allgathers, c.w.algs.Allgather, "allgather")(c.enter(machine.OpAllgather), mine)
}

// Allreduce combines contributions and delivers the result to every
// rank (MPI_Allreduce).
func (c *Comm) Allreduce(mine []byte, op ReduceOp, dt Datatype) []byte {
	return lookup(coll.Allreduces, c.w.algs.Allreduce, "allreduce")(
		c.enter(machine.OpAllreduce), mine, op.Combiner(dt))
}

// Gatherv collects variable-size blocks at root (MPI_Gatherv); root
// returns blocks in rank order, others nil.
func (c *Comm) Gatherv(root int, mine []byte) [][]byte {
	return coll.Gatherv(c.enter(machine.OpGather), root, mine)
}
