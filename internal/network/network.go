// Package network models message transmission through a multicomputer
// interconnect. It combines a topology (which links a message crosses)
// with per-link occupancy accounting (when it may cross them), using a
// wormhole-pipelining approximation: a message's head moves one hop per
// per-hop latency and its body streams at the bottleneck bandwidth, so an
// uncontended transfer of m bytes over H hops completes in
//
//	H·t_hop + m/B
//
// while contention serializes transfers on shared links. Node adapters
// (NICs) bound per-node injection and ejection rates, which on all three
// machines studied in the paper — not raw link speed — limit what MPI
// actually delivers.
package network

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Params are the hardware constants of a fabric.
type Params struct {
	// HopLatency is the per-hop routing/switch delay (paper §4: 125 ns
	// SP2, 20 ns T3D, 40 ns Paragon).
	HopLatency sim.Duration
	// LinkBandwidthMBs is the raw bandwidth of each network link in
	// MByte/s (paper §5: 40 SP2, 300 T3D, 175 Paragon).
	LinkBandwidthMBs float64
	// InjectionMBs is the effective per-node injection/ejection rate in
	// MByte/s achievable by the messaging software (memory copies,
	// protocol processing). This is what saturates first for MPI.
	InjectionMBs float64
	// WireLatency is a fixed time-of-flight added to every transfer
	// (cable lengths, adapter crossing). Zero is valid.
	WireLatency sim.Duration
}

// Network is the simulated fabric: topology + link occupancy state.
type Network struct {
	k     *sim.Kernel
	topo  topology.Topology
	p     Params
	links []sim.Time // earliest time each directed link is next free
	nicTx []sim.Time // per-node injection port occupancy
	nicRx []sim.Time // per-node ejection port occupancy

	// path is the route buffer TransferDetail appends each message's
	// links into, reused so routing allocates nothing in steady state.
	path []topology.LinkID

	// Stats
	transfers   uint64
	bytesMoved  uint64
	contendedNs sim.Duration
}

// New returns a network over the given topology.
func New(k *sim.Kernel, topo topology.Topology, p Params) *Network {
	if p.LinkBandwidthMBs <= 0 || p.InjectionMBs <= 0 {
		panic("network: bandwidths must be positive")
	}
	return &Network{
		k:     k,
		topo:  topo,
		p:     p,
		links: make([]sim.Time, topo.Links()),
		nicTx: make([]sim.Time, topo.Nodes()),
		nicRx: make([]sim.Time, topo.Nodes()),
	}
}

// Topology returns the underlying topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Params returns the fabric constants.
func (n *Network) Params() Params { return n.p }

// Transfers returns the number of completed Transfer calls.
func (n *Network) Transfers() uint64 { return n.transfers }

// BytesMoved returns the cumulative payload bytes transferred.
func (n *Network) BytesMoved() uint64 { return n.bytesMoved }

// ContentionTime returns the cumulative time transfers spent waiting for
// busy links or adapters.
func (n *Network) ContentionTime() sim.Duration { return n.contendedNs }

// Transfer reserves the path from src to dst for a message of size bytes
// that is ready to inject at time ready, and returns the time the last
// byte arrives at dst. It updates link occupancy so later transfers
// contend realistically. size 0 models a control packet (header only).
//
// Transfer is a pure state update on the occupancy table; callers embed
// the returned arrival time in a delivery event.
func (n *Network) Transfer(src, dst int, size int, ready sim.Time) sim.Time {
	return n.TransferRate(src, dst, size, ready, n.p.InjectionMBs)
}

// TransferRate is Transfer with an explicit effective injection rate,
// used by the MPI layer because each collective's code path achieves a
// different per-node rate (protocol processing and copies differ). The
// rate is still capped by the physical link bandwidth.
func (n *Network) TransferRate(src, dst int, size int, ready sim.Time, injMBs float64) sim.Time {
	_, arrive := n.TransferDetail(src, dst, size, ready, injMBs)
	return arrive
}

// TransferDetail is TransferRate also returning the time injection
// completes at the source (when a blocking sender's buffer is free).
func (n *Network) TransferDetail(src, dst int, size int, ready sim.Time, injMBs float64) (txDone, arrive sim.Time) {
	if injMBs <= 0 {
		injMBs = n.p.InjectionMBs
	}
	if src == dst {
		// Intra-node: a memory copy at injection rate, no network.
		done := ready.Add(sim.PerByte(int64(size), injMBs))
		return done, done
	}
	n.path = n.topo.AppendRoute(n.path[:0], src, dst)
	path := n.path
	rate := injMBs
	if n.p.LinkBandwidthMBs < rate {
		rate = n.p.LinkBandwidthMBs
	}
	// End-to-end streaming is paced by the slowest stage (the endpoint
	// software, for MPI on all three machines), but each *network link*
	// is occupied only for the time the wire itself needs: a slow
	// receiver back-pressures the sender, it does not slow the wire for
	// bystanders sharing the link.
	ser := sim.PerByte(int64(size), rate)
	serEnd := sim.PerByte(int64(size), injMBs)
	serLink := sim.PerByte(int64(size), n.p.LinkBandwidthMBs)

	// Earliest start: when the injection port, every path link, and the
	// ejection port are simultaneously free (wormhole holds the path).
	start := ready
	if n.nicTx[src] > start {
		start = n.nicTx[src]
	}
	if n.nicRx[dst] > start {
		start = n.nicRx[dst]
	}
	for _, l := range path {
		if n.links[l] > start {
			start = n.links[l]
		}
	}
	if start > ready {
		n.contendedNs += start.Sub(ready)
	}

	hop := n.p.HopLatency
	// Head reaches dst after crossing every hop; body streams behind it.
	headArrive := start.Add(sim.Duration(len(path)) * hop).Add(n.p.WireLatency)
	done := headArrive.Add(ser)

	// Occupancy: link i carries the body from its head-arrival until the
	// tail passes at wire pace; endpoints hold their ports for the
	// software-paced serialization.
	n.nicTx[src] = start.Add(serEnd)
	for i, l := range path {
		busyFrom := start.Add(sim.Duration(i+1) * hop)
		n.links[l] = busyFrom.Add(serLink)
	}
	n.nicRx[dst] = start.Add(sim.Duration(len(path)) * hop).Add(serEnd)

	n.transfers++
	n.bytesMoved += uint64(size)
	return start.Add(serEnd), done
}

func (n *Network) bottleneckMBs() float64 {
	if n.p.InjectionMBs < n.p.LinkBandwidthMBs {
		return n.p.InjectionMBs
	}
	return n.p.LinkBandwidthMBs
}

// UncontendedLatency returns the zero-load time for size bytes from src
// to dst — the textbook wormhole formula — without touching occupancy.
func (n *Network) UncontendedLatency(src, dst int, size int) sim.Duration {
	hops := topology.Hops(n.topo, src, dst)
	return sim.Duration(hops)*n.p.HopLatency + n.p.WireLatency + sim.PerByte(int64(size), n.bottleneckMBs())
}

// Reset clears all occupancy state and statistics, as between benchmark
// repetitions on a dedicated machine.
func (n *Network) Reset() {
	for i := range n.links {
		n.links[i] = 0
	}
	for i := range n.nicTx {
		n.nicTx[i] = 0
	}
	for i := range n.nicRx {
		n.nicRx[i] = 0
	}
	n.transfers = 0
	n.bytesMoved = 0
	n.contendedNs = 0
}

// String describes the fabric.
func (n *Network) String() string {
	return fmt.Sprintf("%s hop=%v link=%.0fMB/s inj=%.1fMB/s",
		n.topo.Name(), n.p.HopLatency, n.p.LinkBandwidthMBs, n.p.InjectionMBs)
}
