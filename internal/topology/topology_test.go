package topology

import (
	"slices"
	"testing"
	"testing/quick"
)

// endpoints recovers, for a given topology, which node each link leaves
// from (for validation that consecutive route links are adjacent). We
// validate structural invariants instead: paths are loop-free in link
// IDs, within diameter, and terminate correctly by construction of the
// routing functions, which we cross-check with coordinate arithmetic.

// dirty is the prefix route() leaves in the buffer it appends into.
var dirty = []LinkID{-1, 7, -3}

// route returns the route from src to dst through the append form,
// appended to a buffer already holding dirty, and fails the test if the
// prefix does not survive. Every route test goes through it, so each
// checks the append form against a non-empty buffer too.
func route(tb testing.TB, tp Topology, src, dst int) []LinkID {
	tb.Helper()
	buf := append(make([]LinkID, 0, len(dirty)+1), dirty...)
	out := tp.AppendRoute(buf, src, dst)
	if !slices.Equal(out[:len(dirty)], dirty) {
		tb.Fatalf("%s: route(%d,%d) overwrote the buffer prefix: %v", tp.Name(), src, dst, out[:len(dirty)])
	}
	return out[len(dirty):]
}

// TestAppendRouteKeepsPrefix routes every ordered pair of every
// topology family at every node count from 2 to 64, appending to a
// reused, dirty buffer: the prefix must survive and the appended links
// must equal a fresh route's.
func TestAppendRouteKeepsPrefix(t *testing.T) {
	var buf []LinkID
	for n := 2; n <= 64; n++ {
		for _, tp := range []Topology{TorusForNodes(n), MeshForNodes(n), OmegaForNodes(n), NewCrossbar(n)} {
			for s := 0; s < tp.Nodes(); s++ {
				for d := 0; d < tp.Nodes(); d++ {
					fresh := tp.AppendRoute(nil, s, d)
					buf = append(buf[:0], dirty...)
					buf = append(buf, LinkID(s), LinkID(d)) // garbage from a previous use
					buf = tp.AppendRoute(buf[:len(dirty)], s, d)
					if !slices.Equal(buf[:len(dirty)], dirty) {
						t.Fatalf("%s: route(%d,%d) overwrote the prefix: %v", tp.Name(), s, d, buf[:len(dirty)])
					}
					if got := buf[len(dirty):]; !slices.Equal(got, fresh) {
						t.Fatalf("%s: route(%d,%d) appended %v, fresh route %v", tp.Name(), s, d, got, fresh)
					}
				}
			}
		}
	}
}

func TestTorusCoordRoundTrip(t *testing.T) {
	to := NewTorus3D(4, 2, 8)
	for id := 0; id < to.Nodes(); id++ {
		x, y, z := to.Coord(id)
		if to.NodeAt(x, y, z) != id {
			t.Fatalf("coord round trip failed for %d", id)
		}
	}
}

func TestTorusRouteLengthIsManhattanRingDistance(t *testing.T) {
	to := NewTorus3D(4, 4, 4)
	ringDist := func(a, b, n int) int {
		d := (a - b + n) % n
		if n-d < d {
			d = n - d
		}
		return d
	}
	for s := 0; s < to.Nodes(); s++ {
		for d := 0; d < to.Nodes(); d++ {
			sx, sy, sz := to.Coord(s)
			dx, dy, dz := to.Coord(d)
			want := ringDist(sx, dx, 4) + ringDist(sy, dy, 4) + ringDist(sz, dz, 4)
			if got := Hops(to, s, d); got != want {
				t.Fatalf("hops(%d,%d) = %d, want %d", s, d, got, want)
			}
		}
	}
}

func TestTorusRouteWithinDiameter(t *testing.T) {
	for _, to := range []*Torus3D{NewTorus3D(2, 2, 2), NewTorus3D(4, 4, 2), NewTorus3D(8, 4, 4)} {
		for s := 0; s < to.Nodes(); s++ {
			for d := 0; d < to.Nodes(); d++ {
				if h := Hops(to, s, d); h > to.Diameter() {
					t.Fatalf("%s: hops(%d,%d)=%d exceeds diameter %d", to.Name(), s, d, h, to.Diameter())
				}
			}
		}
	}
}

func TestTorusSelfRouteEmpty(t *testing.T) {
	to := NewTorus3D(4, 4, 4)
	for id := 0; id < to.Nodes(); id++ {
		if len(route(t, to, id, id)) != 0 {
			t.Fatalf("self route of %d not empty", id)
		}
	}
}

func TestTorusDistanceSymmetric(t *testing.T) {
	// Hop *count* is symmetric on a torus with shortest-arc routing.
	to := NewTorus3D(4, 8, 2)
	for s := 0; s < to.Nodes(); s++ {
		for d := s + 1; d < to.Nodes(); d++ {
			if Hops(to, s, d) != Hops(to, d, s) {
				t.Fatalf("asymmetric distance between %d and %d", s, d)
			}
		}
	}
}

func TestTorusForNodes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 100, 128} {
		to := TorusForNodes(n)
		if to.Nodes() < n {
			t.Fatalf("TorusForNodes(%d) has %d nodes", n, to.Nodes())
		}
		if to.Nodes() > 2*n {
			t.Fatalf("TorusForNodes(%d) oversized: %d", n, to.Nodes())
		}
	}
}

func TestTorusLinkIDsInRange(t *testing.T) {
	to := NewTorus3D(4, 4, 4)
	prop := func(s, d uint8) bool {
		src, dst := int(s)%to.Nodes(), int(d)%to.Nodes()
		for _, l := range route(t, to, src, dst) {
			if int(l) < 0 || int(l) >= to.Links() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTorusRouteNoRepeatedLinks(t *testing.T) {
	to := NewTorus3D(8, 8, 2)
	prop := func(s, d uint8) bool {
		src, dst := int(s)%to.Nodes(), int(d)%to.Nodes()
		seen := map[LinkID]bool{}
		for _, l := range route(t, to, src, dst) {
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeshRouteLengthIsManhattan(t *testing.T) {
	m := NewMesh2D(8, 16)
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	for s := 0; s < m.Nodes(); s += 7 {
		for d := 0; d < m.Nodes(); d += 5 {
			sx, sy := m.Coord(s)
			dx, dy := m.Coord(d)
			want := abs(sx-dx) + abs(sy-dy)
			if got := Hops(m, s, d); got != want {
				t.Fatalf("hops(%d,%d) = %d, want %d", s, d, got, want)
			}
		}
	}
}

func TestMeshDiameter(t *testing.T) {
	m := NewMesh2D(16, 8)
	if m.Diameter() != 22 {
		t.Fatalf("diameter = %d, want 22", m.Diameter())
	}
	if got := Hops(m, 0, m.Nodes()-1); got != 22 {
		t.Fatalf("corner-to-corner hops = %d, want 22", got)
	}
}

func TestMeshXYOrdering(t *testing.T) {
	// XY routing corrects X completely before Y: from (0,0) to (2,2) the
	// first two links must be +X links of nodes (0,0) and (1,0).
	m := NewMesh2D(4, 4)
	path := route(t, m, m.NodeAt(0, 0), m.NodeAt(2, 2))
	if len(path) != 4 {
		t.Fatalf("path length = %d, want 4", len(path))
	}
	if path[0] != m.linkID(m.NodeAt(0, 0), meshXPlus) || path[1] != m.linkID(m.NodeAt(1, 0), meshXPlus) {
		t.Fatalf("XY routing violated: %v", path)
	}
	if path[2] != m.linkID(m.NodeAt(2, 0), meshYPlus) || path[3] != m.linkID(m.NodeAt(2, 1), meshYPlus) {
		t.Fatalf("XY routing violated in Y phase: %v", path)
	}
}

func TestMeshForNodes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 16, 64, 100, 128} {
		m := MeshForNodes(n)
		if m.Nodes() < n {
			t.Fatalf("MeshForNodes(%d) has %d", n, m.Nodes())
		}
	}
}

func TestOmegaUniformPathLength(t *testing.T) {
	for _, o := range []*Omega{NewOmega(16, 2), NewOmega(16, 4), NewOmega(64, 4), NewOmega(128, 2)} {
		want := o.Stages() + 1
		for s := 0; s < o.Nodes(); s += 3 {
			for d := 0; d < o.Nodes(); d += 5 {
				if s == d {
					continue
				}
				if got := Hops(o, s, d); got != want {
					t.Fatalf("%s: hops(%d,%d) = %d, want %d", o.Name(), s, d, got, want)
				}
			}
		}
	}
}

func TestOmegaRoutesDistinctDestinationsDisjointFinalLink(t *testing.T) {
	// The final link of a route is the ejection link, unique per
	// destination: two routes to different destinations must end on
	// different links.
	o := NewOmega(64, 4)
	for src := 0; src < 8; src++ {
		last := map[LinkID]int{}
		for dst := 0; dst < o.Nodes(); dst++ {
			if dst == src {
				continue
			}
			p := route(t, o, src, dst)
			l := p[len(p)-1]
			if prev, dup := last[l]; dup {
				t.Fatalf("destinations %d and %d share final link %d", prev, dst, l)
			}
			last[l] = dst
		}
	}
}

func TestOmegaPermutationRoutingIdentity(t *testing.T) {
	// The identity permutation (node i sends to node i XOR shift within
	// switch groups) is congestion-free for the shuffle: verify at least
	// that routes i→i+n/2 all have distinct links per stage (a classic
	// omega-routable permutation).
	o := NewOmega(16, 2)
	used := map[LinkID]int{}
	for i := 0; i < o.Nodes(); i++ {
		d := (i + o.Nodes()/2) % o.Nodes()
		for _, l := range route(t, o, i, d) {
			used[l]++
		}
	}
	for l, c := range used {
		if c > 1 {
			t.Fatalf("link %d used %d times by a routable permutation", l, c)
		}
	}
}

func TestOmegaForNodes(t *testing.T) {
	cases := []struct{ n, nodes, radix int }{
		{2, 2, 2},
		{4, 4, 4},
		{8, 8, 2},
		{16, 16, 4},
		{64, 64, 4},
		{128, 128, 2},
		{100, 128, 2},
	}
	for _, c := range cases {
		o := OmegaForNodes(c.n)
		if o.Nodes() != c.nodes || o.radix != c.radix {
			t.Fatalf("OmegaForNodes(%d) = %s", c.n, o.Name())
		}
	}
}

func TestOmegaBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power size")
		}
	}()
	NewOmega(12, 2)
}

func TestCrossbarDisjointRoutes(t *testing.T) {
	c := NewCrossbar(16)
	used := map[LinkID]bool{}
	// A permutation: every route must be link-disjoint.
	for i := 0; i < 16; i++ {
		for _, l := range route(t, c, i, (i+5)%16) {
			if used[l] {
				t.Fatal("crossbar routes collide under permutation traffic")
			}
			used[l] = true
		}
	}
}

// averageDistance returns the mean hop count over all ordered pairs of
// distinct nodes.
func averageDistance(t Topology) float64 {
	n := t.Nodes()
	total := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				total += Hops(t, s, d)
			}
		}
	}
	return float64(total) / float64(n*(n-1))
}

func TestAverageDistance(t *testing.T) {
	// Crossbar: every distinct pair is 2 hops.
	if got := averageDistance(NewCrossbar(8)); got != 2 {
		t.Fatalf("crossbar average distance = %v", got)
	}
	// 4x4x4 torus: mean ring distance per dim = (0+1+1+2)/4 = 1, times 3
	// dims, over ordered pairs of distinct nodes: 64*64*3/ (64*63).
	want := float64(64*64*3) / float64(64*63)
	if got := averageDistance(NewTorus3D(4, 4, 4)); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("torus average distance = %v, want %v", got, want)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	topos := []Topology{NewTorus3D(2, 2, 2), NewMesh2D(4, 4), NewOmega(8, 2), NewCrossbar(4)}
	for _, tp := range topos {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on out-of-range node", tp.Name())
				}
			}()
			tp.AppendRoute(nil, 0, tp.Nodes())
		}()
	}
}

func TestLinksCountConsistent(t *testing.T) {
	topos := []Topology{NewTorus3D(4, 4, 2), NewMesh2D(8, 4), NewOmega(32, 2), NewCrossbar(8)}
	for _, tp := range topos {
		maxID := -1
		for s := 0; s < tp.Nodes(); s++ {
			for d := 0; d < tp.Nodes(); d++ {
				for _, l := range route(t, tp, s, d) {
					if int(l) > maxID {
						maxID = int(l)
					}
					if int(l) < 0 || int(l) >= tp.Links() {
						t.Fatalf("%s: link %d out of [0,%d)", tp.Name(), l, tp.Links())
					}
				}
			}
		}
	}
}

func TestAllPairsLoadCrossbar(t *testing.T) {
	// Crossbar: each injection link carries n-1 routes (one per
	// destination), each ejection link n-1 (one per source).
	c := NewCrossbar(8)
	p := AllPairsLoad(c)
	if p.MaxLoad != 7 {
		t.Fatalf("crossbar max load = %d, want 7", p.MaxLoad)
	}
	if p.UsedLinks != 16 {
		t.Fatalf("used links = %d, want 16", p.UsedLinks)
	}
}

func TestAllPairsLoadTorusBeatsMesh(t *testing.T) {
	// With wraparound a torus spreads uniform traffic over more links
	// than a mesh of the same size: its busiest channel carries less.
	torus := NewTorus3D(4, 4, 4)
	mesh := NewMesh2D(8, 8)
	lt := AllPairsLoad(torus)
	lm := AllPairsLoad(mesh)
	if lt.MaxLoad >= lm.MaxLoad {
		t.Fatalf("torus max load %d should be below mesh %d", lt.MaxLoad, lm.MaxLoad)
	}
}

func TestSaturationBandwidthOrderingMatchesPaper(t *testing.T) {
	// At 64 nodes with the paper's link rates, the topology-level
	// total-exchange ceilings must rank T3D first — same direction as
	// the measured 1.745/0.879/0.818 GB/s (the software layer, not the
	// wires, is the real limiter; these ceilings sit far above).
	t3d := SaturationBandwidthMBs(NewTorus3D(4, 4, 4), 300)
	par := SaturationBandwidthMBs(NewMesh2D(8, 8), 175)
	sp2 := SaturationBandwidthMBs(OmegaForNodes(64), 40)
	if !(t3d > par && par > sp2) {
		t.Fatalf("saturation ordering broken: T3D %.0f, Paragon %.0f, SP2 %.0f", t3d, par, sp2)
	}
	// All ceilings exceed the measured (software-limited) rates.
	if t3d < 1745 || par < 879 || sp2 < 818 {
		t.Fatalf("hardware ceiling below measured software rate: %.0f %.0f %.0f", t3d, par, sp2)
	}
}

func TestOmegaLoadUniform(t *testing.T) {
	// In an omega network every route has the same length and the
	// shuffle spreads uniform traffic evenly: every link carries the
	// same load n-1... per stage column. Verify max equals mean.
	o := NewOmega(16, 2)
	p := AllPairsLoad(o)
	if float64(p.MaxLoad) > p.MeanLoad*1.5 {
		t.Fatalf("omega uniform traffic unexpectedly skewed: max %d mean %.1f", p.MaxLoad, p.MeanLoad)
	}
}
