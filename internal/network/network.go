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
	"math"

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

	// routes memoizes every route taken so far; path is the buffer a
	// pair's route is computed into on its first use.
	routes routeMemo
	path   []topology.LinkID
}

// New returns a network over the given topology, which must fit the
// route memo's packed layout (see fitsRouteMemo); every machine the
// study allocates does, with room to spare.
func New(k *sim.Kernel, topo topology.Topology, p Params) *Network {
	if p.LinkBandwidthMBs <= 0 || p.InjectionMBs <= 0 {
		panic("network: bandwidths must be positive")
	}
	if !fitsRouteMemo(topo) {
		panic(fmt.Sprintf("network: %s (%d nodes, %d links, diameter %d) is too large for the route memo",
			topo.Name(), topo.Nodes(), topo.Links(), topo.Diameter()))
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

// routeMemo holds each (src, dst) route of a topology from the first
// transfer that takes it: routes are fixed, so every later message,
// execution and repetition on the network reuses them. Link IDs are
// stored as uint16 in an arena of chunks that fill without regrowing,
// and each pair's span packs its arena offset and route length into
// one uint32, so a 128-node all-to-all holds ~0.3 MB; the memo lives
// and dies with its Network.
type routeMemo struct {
	span   []uint32 // src·n+dst → offset<<8 | length; 0 until routed
	chunks [][]uint16
}

// memoChunk is the largest number of link IDs per arena chunk; chunk c
// starts at arena offset c·memoChunk. A route never straddles two
// chunks.
const memoChunk = 1 << 12

// fitsRouteMemo reports whether t's link IDs and route lengths fit the
// memo's packed layout (offsets get 24 bits; the bound leaves room for
// the chunk tails a route does not fit into).
func fitsRouteMemo(t topology.Topology) bool {
	n := t.Nodes()
	return t.Links() <= math.MaxUint16+1 && t.Diameter() <= math.MaxUint8 && n*n*t.Diameter() < 1<<23
}

// route returns the links from src to dst, src ≠ dst, routing the pair
// on first use.
func (n *Network) route(src, dst int) []uint16 {
	r := &n.routes
	nodes := len(n.nicTx) // the topology's node count
	if r.span == nil {
		r.span = make([]uint32, nodes*nodes)
	}
	i := src*nodes + dst
	s := r.span[i]
	if s == 0 {
		n.path = n.topo.AppendRoute(n.path[:0], src, dst)
		diam := n.topo.Diameter()
		if len(n.path) > diam {
			panic(fmt.Sprintf("network: %s route %d→%d is longer than its diameter", n.topo.Name(), src, dst))
		}
		last := len(r.chunks) - 1
		if last < 0 || len(r.chunks[last])+len(n.path) > cap(r.chunks[last]) {
			// A small network's routes all fit one chunk shorter than
			// memoChunk.
			r.chunks = append(r.chunks, make([]uint16, 0, min(memoChunk, nodes*(nodes-1)*diam)))
			last++
		}
		c := r.chunks[last]
		s = uint32(last*memoChunk+len(c))<<8 | uint32(len(n.path))
		for _, l := range n.path {
			c = append(c, uint16(l))
		}
		r.chunks[last] = c
		r.span[i] = s
	}
	at := int(s>>8) % memoChunk
	end := at + int(s&0xff)
	return r.chunks[s>>8/memoChunk][at:end:end]
}

// Topology returns the underlying topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Params returns the fabric constants.
func (n *Network) Params() Params { return n.p }

// Transfer reserves the path from src to dst for a message of size
// bytes that is ready to inject at time ready, and returns the time
// injection completes at src (when a blocking sender's buffer is free)
// and the time the last byte arrives at dst. It updates link occupancy
// so later transfers contend realistically. size 0 models a control
// packet (header only).
//
// injMBs is the effective injection rate, which the MPI layer passes
// per operation because each collective's code path achieves a
// different per-node rate (protocol processing and copies differ); it
// must be positive, and the stream is still capped by the physical link
// bandwidth. Transfer is a pure state update on the occupancy table;
// callers embed the returned arrival time in a delivery event.
func (n *Network) Transfer(src, dst int, size int, ready sim.Time, injMBs float64) (txDone, arrive sim.Time) {
	if src == dst {
		// Intra-node: a memory copy at injection rate, no network.
		done := ready.Add(sim.PerByte(int64(size), injMBs))
		return done, done
	}
	path := n.route(src, dst)
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

// Reset clears all occupancy state, as between benchmark repetitions on
// a dedicated machine.
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
}

// String describes the fabric.
func (n *Network) String() string {
	return fmt.Sprintf("%s hop=%v link=%.0fMB/s inj=%.1fMB/s",
		n.topo.Name(), n.p.HopLatency, n.p.LinkBandwidthMBs, n.p.InjectionMBs)
}
