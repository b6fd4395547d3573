package network

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

func testNet() *Network {
	k := sim.New(1)
	return New(k, topology.NewCrossbar(8), Params{
		HopLatency:       100, // 100 ns
		LinkBandwidthMBs: 100, // 10 ns/byte
		InjectionMBs:     100,
	})
}

// arrive books a transfer at the fabric's own injection rate and
// returns its arrival time.
func arrive(n *Network, src, dst, size int, ready sim.Time) sim.Time {
	_, at := n.Transfer(src, dst, size, ready, n.Params().InjectionMBs)
	return at
}

func TestUncontendedWormholeFormula(t *testing.T) {
	n := testNet()
	// 2 hops * 100ns + 1000 bytes * 10ns/B = 200 + 10000 = 10200ns.
	got := arrive(n, 0, 1, 1000, 0)
	if got != 10200 {
		t.Fatalf("arrival = %d, want 10200", got)
	}
	if n.UncontendedLatency(0, 1, 1000) != 10200 {
		t.Fatalf("UncontendedLatency mismatch")
	}
}

func TestZeroByteTransferIsHeaderOnly(t *testing.T) {
	n := testNet()
	if got := arrive(n, 0, 1, 0, 0); got != 200 {
		t.Fatalf("control packet arrival = %d, want 200", got)
	}
}

func TestIntraNodeTransferSkipsNetwork(t *testing.T) {
	n := testNet()
	got := arrive(n, 3, 3, 1000, 50)
	if got != 50+10000 {
		t.Fatalf("intra-node arrival = %d, want 10050", got)
	}
	// The copy occupies no port or link: node 3's next send leaves at once.
	if got := arrive(n, 3, 4, 1000, 0); got != 10200 {
		t.Fatalf("send after an intra-node copy arrives at %d, want 10200", got)
	}
}

func TestInjectionPortSerializesSends(t *testing.T) {
	n := testNet()
	// Two back-to-back sends from node 0 to different destinations must
	// serialize at node 0's injection port.
	a := arrive(n, 0, 1, 1000, 0)
	b := arrive(n, 0, 2, 1000, 0)
	if a != 10200 {
		t.Fatalf("first arrival %d", a)
	}
	// Second send can begin only when the first's tail has crossed the
	// injection link: 10000 (serialization) + 100 (tail hop) = 10100.
	if b != 10100+10200 {
		t.Fatalf("second arrival = %d, want 20300", b)
	}
}

func TestEjectionPortSerializesReceives(t *testing.T) {
	n := testNet()
	a := arrive(n, 1, 0, 1000, 0)
	b := arrive(n, 2, 0, 1000, 0)
	if a != 10200 {
		t.Fatalf("first arrival %d", a)
	}
	if b <= a {
		t.Fatalf("concurrent receives did not serialize: %d then %d", a, b)
	}
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	n := testNet()
	a := arrive(n, 0, 1, 1000, 0)
	b := arrive(n, 2, 3, 1000, 0)
	if a != b {
		t.Fatalf("disjoint transfers should complete together: %d vs %d", a, b)
	}
	if want := sim.Time(n.UncontendedLatency(2, 3, 1000)); b != want {
		t.Fatalf("disjoint transfer arrived at %d, want the uncontended %d", b, want)
	}
}

func TestSharedMeshLinkContends(t *testing.T) {
	k := sim.New(1)
	m := topology.NewMesh2D(4, 1) // a 4-node chain
	n := New(k, m, Params{HopLatency: 100, LinkBandwidthMBs: 100, InjectionMBs: 100})
	// 0→3 and 1→3 share links (1→2, 2→3).
	a := arrive(n, 0, 3, 1000, 0)
	b := arrive(n, 1, 3, 1000, 0)
	if b <= a {
		t.Fatalf("shared-link transfers must serialize: %d then %d", a, b)
	}
	if free := sim.Time(n.UncontendedLatency(1, 3, 1000)); b <= free {
		t.Fatalf("shared-link transfer arrived at %d, no later than the uncontended %d", b, free)
	}
}

func TestBottleneckIsMinOfLinkAndInjection(t *testing.T) {
	k := sim.New(1)
	n := New(k, topology.NewCrossbar(4), Params{
		HopLatency:       0,
		LinkBandwidthMBs: 1000,
		InjectionMBs:     10, // 100 ns/byte — the bottleneck
	})
	if got := arrive(n, 0, 1, 100, 0); got != 10000 {
		t.Fatalf("arrival = %d, want 10000 (injection-limited)", got)
	}
}

func TestReadyTimeRespected(t *testing.T) {
	n := testNet()
	if got := arrive(n, 0, 1, 0, 5000); got != 5200 {
		t.Fatalf("arrival = %d, want 5200", got)
	}
}

func TestResetClearsState(t *testing.T) {
	n := testNet()
	arrive(n, 0, 1, 4096, 0)
	arrive(n, 0, 2, 4096, 0)
	n.Reset()
	if got := arrive(n, 0, 1, 1000, 0); got != 10200 {
		t.Fatalf("occupancy not cleared: %d", got)
	}
}

func TestWireLatencyAdds(t *testing.T) {
	k := sim.New(1)
	n := New(k, topology.NewCrossbar(4), Params{
		HopLatency: 100, LinkBandwidthMBs: 100, InjectionMBs: 100, WireLatency: 1000,
	})
	if got := arrive(n, 0, 1, 0, 0); got != 1200 {
		t.Fatalf("arrival = %d, want 1200", got)
	}
}

func TestTorusManyToOneFunnels(t *testing.T) {
	// All nodes sending to node 0 must serialize at 0's ejection port:
	// total time ≥ (p-1) * serialization.
	k := sim.New(1)
	to := topology.NewTorus3D(2, 2, 2)
	n := New(k, to, Params{HopLatency: 20, LinkBandwidthMBs: 300, InjectionMBs: 100})
	var last sim.Time
	for src := 1; src < 8; src++ {
		if got := arrive(n, src, 0, 10000, 0); got > last {
			last = got
		}
	}
	ser := sim.PerByte(10000, 100)
	if last < sim.Time(7*ser) {
		t.Fatalf("funnel completed at %d, want ≥ %d", last, 7*ser)
	}
}

func TestPropertyArrivalNeverBeforeUncontended(t *testing.T) {
	// Under any traffic, a transfer can never complete faster than its
	// zero-load latency from its ready time.
	k := sim.New(1)
	to := topology.NewTorus3D(4, 4, 2)
	n := New(k, to, Params{HopLatency: 20, LinkBandwidthMBs: 300, InjectionMBs: 27})
	prop := func(srcs, dsts [6]uint8, sizes [6]uint16) bool {
		n.Reset()
		var ready sim.Time
		for i := 0; i < 6; i++ {
			src := int(srcs[i]) % to.Nodes()
			dst := int(dsts[i]) % to.Nodes()
			size := int(sizes[i])
			arrive := arrive(n, src, dst, size, ready)
			if src != dst {
				min := ready.Add(n.UncontendedLatency(src, dst, size))
				if arrive < min {
					return false
				}
			}
			ready = ready.Add(10)
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyArrivalMonotoneInReadyTime(t *testing.T) {
	// Same transfer issued later must not arrive earlier.
	k := sim.New(1)
	n := New(k, topology.NewMesh2D(4, 4), Params{HopLatency: 40, LinkBandwidthMBs: 175, InjectionMBs: 14})
	prop := func(r1, r2 uint16, size uint16) bool {
		a, b := sim.Time(r1), sim.Time(r2)
		if a > b {
			a, b = b, a
		}
		n.Reset()
		t1 := arrive(n, 0, 5, int(size), a)
		n.Reset()
		t2 := arrive(n, 0, 5, int(size), b)
		return t2 >= t1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRouteMemoMatchesAppendRoute checks the memoized route of every
// ordered pair against the topology's own routing, for every family at
// 2–64 nodes: on first use (pairs taken in reverse order, so arena
// offsets do not follow pair order), on reuse, and after Reset, which
// must keep the memo rather than route again.
func TestRouteMemoMatchesAppendRoute(t *testing.T) {
	families := map[string]func(int) topology.Topology{
		"omega":    func(n int) topology.Topology { return topology.OmegaForNodes(n) },
		"torus":    func(n int) topology.Topology { return topology.TorusForNodes(n) },
		"mesh":     func(n int) topology.Topology { return topology.MeshForNodes(n) },
		"crossbar": func(n int) topology.Topology { return topology.NewCrossbar(n) },
	}
	for name, build := range families {
		for p := 2; p <= 64; p++ {
			topo := build(p)
			net := New(sim.New(1), topo, Params{HopLatency: 1, LinkBandwidthMBs: 1, InjectionMBs: 1})
			nodes := topo.Nodes()
			check := func(when string) {
				for src := nodes - 1; src >= 0; src-- {
					for dst := nodes - 1; dst >= 0; dst-- {
						if src == dst {
							continue
						}
						want := topo.AppendRoute(nil, src, dst)
						got := net.route(src, dst)
						if len(got) != len(want) {
							t.Fatalf("%s %s %d→%d: route %v, want %v", name, when, src, dst, got, want)
						}
						for i := range got {
							if topology.LinkID(got[i]) != want[i] {
								t.Fatalf("%s %s %d→%d: route %v, want %v", name, when, src, dst, got, want)
							}
						}
					}
				}
			}
			check("first use")
			stored := func() (links int) {
				for _, c := range net.routes.chunks {
					links += len(c)
				}
				return links
			}
			span, links := &net.routes.span[0], stored()
			check("reuse")
			net.Reset()
			check("after Reset")
			if &net.routes.span[0] != span || stored() != links {
				t.Fatalf("%s: routes were recomputed on reuse or after Reset", topo.Name())
			}
		}
	}
}

// TestRouteMemoSizing checks the memo's arena against its packed
// layout: a small network's routes share one chunk sized to them, and
// New refuses a topology whose links or routes the layout cannot hold.
func TestRouteMemoSizing(t *testing.T) {
	prm := Params{HopLatency: 40, LinkBandwidthMBs: 175, InjectionMBs: 60}
	topo := topology.MeshForNodes(4)
	net := New(sim.New(1), topo, prm)
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			arrive(net, src, dst, 64, 0)
		}
	}
	if got, want := cap(net.routes.chunks[0]), 4*3*topo.Diameter(); len(net.routes.chunks) != 1 || got != want {
		t.Fatalf("4-node mesh: %d chunks, first of capacity %d; want 1 of %d", len(net.routes.chunks), got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 4096-node mesh overflows the packed memo but New accepted it")
		}
	}()
	New(sim.New(1), topology.MeshForNodes(4096), prm)
}
