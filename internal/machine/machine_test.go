package machine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestPresetsBasics(t *testing.T) {
	for _, m := range All() {
		if m.Name() == "" {
			t.Fatal("unnamed machine")
		}
		if m.MaxNodes() < 64 {
			t.Fatalf("%s: max nodes %d", m.Name(), m.MaxNodes())
		}
		if c := m.Costs(OpP2P); c.Send <= 0 || c.Recv <= 0 {
			t.Fatalf("%s: nonpositive default overheads", m.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"SP2", "T3D", "Paragon"} {
		if m := ByName(name); m == nil || m.Name() != name {
			t.Fatalf("ByName(%q) failed", name)
		}
	}
	if ByName("CM-5") != nil {
		t.Fatal("unexpected machine")
	}
}

func TestTopologyFamilies(t *testing.T) {
	if _, ok := SP2().NewTopology(64).(*topology.Omega); !ok {
		t.Error("SP2 should build an omega network")
	}
	if _, ok := T3D().NewTopology(64).(*topology.Torus3D); !ok {
		t.Error("T3D should build a torus")
	}
	if _, ok := Paragon().NewTopology(64).(*topology.Mesh2D); !ok {
		t.Error("Paragon should build a mesh")
	}
}

func TestOnlyT3DHasHardwareBarrier(t *testing.T) {
	for _, m := range All() {
		if got, want := m.HardwareBarrier(), m.Name() == "T3D"; got != want {
			t.Errorf("%s hardware barrier = %v", m.Name(), got)
		}
	}
}

func TestT3DBarrierCostNearThreeMicroseconds(t *testing.T) {
	m := T3D()
	for _, p := range []int{2, 16, 64} {
		c := m.BarrierHardwareCost(p)
		if c < us(3) || c > us(3.2) {
			t.Errorf("T3D hardware barrier for p=%d costs %v, want ≈3µs", p, c)
		}
	}
}

func TestTuningFallbacks(t *testing.T) {
	m := SP2()
	// Allgather has no tuning entry: falls back to defaults.
	if m.Costs(OpAllgather).Send != m.Costs(OpP2P).Send {
		t.Error("allgather send cost should fall back to default")
	}
	// Gather overrides the recv cost.
	if m.Costs(OpGather).Recv == m.Costs(OpP2P).Recv {
		t.Error("gather recv override not applied")
	}
	// Unknown op: full defaults.
	if m.Costs(Op("mystery")).InjMBs(100) != m.Params().Net.InjectionMBs {
		t.Error("unknown op should use default injection rate")
	}
}

func TestBLTThresholdSwitchesBandwidth(t *testing.T) {
	m := T3D()
	small := m.Costs(OpGather).InjMBs(1024)
	big := m.Costs(OpGather).InjMBs(65536)
	if big <= small {
		t.Fatalf("BLT should raise bulk bandwidth: small=%v big=%v", small, big)
	}
	if big != 213 {
		t.Fatalf("BLT gather rate = %v, want 213", big)
	}
}

// TestResolvedCostsMatchTunings checks every preset's resolved cost
// tables against the Tuning fallback rules applied to Params directly:
// each operation, extension operations without a Tuning entry, and an
// unknown operation, with injection rates read on both sides of every
// large-message threshold.
func TestResolvedCostsMatchTunings(t *testing.T) {
	ops := append([]Op{OpP2P, OpAllgather, OpAllreduce, Op("mystery")}, Ops...)
	for _, m := range All() {
		prm := m.Params()
		for _, op := range ops {
			tu := prm.Tunings[op]
			or := func(v, def sim.Duration) sim.Duration {
				if v != 0 {
					return v
				}
				return def
			}
			c := m.Costs(op)
			if c.Send != or(tu.SendOverhead, prm.SendOverhead) || c.Recv != or(tu.RecvOverhead, prm.RecvOverhead) ||
				c.Call != tu.CallOverhead || c.CombinePerByte != tu.CombinePerByte {
				t.Errorf("%s %s: resolved %+v from tuning %+v", m.Name(), op, *c, tu)
			}
			if c != m.Costs(op) {
				t.Errorf("%s %s: Costs resolves a new table per call", m.Name(), op)
			}
			sizes := []int{0, 1, 4096, 1 << 20}
			if tu.BigThreshold > 0 {
				sizes = append(sizes, tu.BigThreshold-1, tu.BigThreshold, tu.BigThreshold+1)
			}
			for _, size := range sizes {
				want := tu.InjMBs
				if want == 0 {
					want = prm.Net.InjectionMBs
				}
				if tu.BigInjMBs != 0 && tu.BigThreshold > 0 && size >= tu.BigThreshold {
					want = tu.BigInjMBs
				}
				if got := c.InjMBs(size); got != want {
					t.Errorf("%s %s size %d: injection %v MB/s, want %v", m.Name(), op, size, got, want)
				}
			}
			if got, want := c.Combine(1000), sim.Duration(int64(tu.CombinePerByte)*1000); got != want {
				t.Errorf("%s %s: combine 1000 B = %v, want %v", m.Name(), op, got, want)
			}
		}
	}
	// The T3D's block-transfer switch is the one threshold the presets
	// carry; make sure the loop above crossed it.
	if T3D().Params().Tunings[OpGather].BigThreshold == 0 {
		t.Fatal("no preset exercises the large-message switch")
	}
}

func TestCombineCostScalesWithSize(t *testing.T) {
	m := Paragon()
	if m.Costs(OpReduce).Combine(0) != 0 {
		t.Error("zero-byte combine should be free")
	}
	c1 := m.Costs(OpReduce).Combine(1000)
	c2 := m.Costs(OpReduce).Combine(2000)
	if c2 != 2*c1 || c1 <= 0 {
		t.Errorf("combine cost not linear: %v, %v", c1, c2)
	}
}

func TestClusterAllocationLimits(t *testing.T) {
	if NewCluster(T3D(), 64, 1) == nil {
		t.Fatal("64-node T3D should allocate")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: the study had at most 64 T3D nodes")
		}
	}()
	NewCluster(T3D(), 128, 1)
}

func TestClusterClockSkewIsStablePerRank(t *testing.T) {
	c := NewCluster(SP2(), 8, 7)
	a := make([]sim.Time, 8)
	for r := 0; r < 8; r++ {
		a[r] = c.LocalClock(r)
	}
	distinct := map[sim.Time]bool{}
	for r := 0; r < 8; r++ {
		if c.LocalClock(r) != a[r] {
			t.Fatal("skew changed between reads at same instant")
		}
		distinct[a[r]] = true
	}
	if len(distinct) < 2 {
		t.Fatal("expected some clock skew across ranks")
	}
}

func TestClusterDeterministicAcrossRuns(t *testing.T) {
	mk := func() []sim.Time {
		c := NewCluster(Paragon(), 16, 42)
		out := make([]sim.Time, 16)
		for r := range out {
			out[r] = c.LocalClock(r)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different skews")
		}
	}
}

func TestJitterBounded(t *testing.T) {
	c := NewCluster(SP2(), 2, 3)
	base := us(100)
	for i := 0; i < 1000; i++ {
		j := c.Jitter(base)
		if j < base || j > base+base/10 {
			t.Fatalf("jitter out of bounds: %v from %v", j, base)
		}
	}
}

func TestHardwareBarrierReleasesAllAtOnce(t *testing.T) {
	c := NewCluster(T3D(), 8, 1)
	k := c.Kernel()
	var release []sim.Time
	for r := 0; r < 8; r++ {
		r := r
		k.Go("", func(p *sim.Proc) {
			p.Sleep(sim.Duration(r) * 10 * sim.Microsecond) // staggered arrival
			c.HardwareBarrierEnter(p)
			release = append(release, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(70 * sim.Microsecond).Add(T3D().BarrierHardwareCost(8))
	for _, tm := range release {
		if tm != want {
			t.Fatalf("release times %v, want all %v", release, want)
		}
	}
}

func TestHardwareBarrierReusable(t *testing.T) {
	c := NewCluster(T3D(), 4, 1)
	k := c.Kernel()
	count := 0
	for r := 0; r < 4; r++ {
		k.Go("", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				c.HardwareBarrierEnter(p)
				count++
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 12 {
		t.Fatalf("count = %d, want 12", count)
	}
}

// TestSharedMachineConcurrentClusters drives clusters of one T3D from
// several goroutines at once, as sweep workers do, so -race sees the
// shared cost tables read concurrently. In each, eight ranks arrive
// staggered at five hardware-barrier generations, then again after a
// Reset; every rank must leave each generation exactly one barrier cost
// after its last arrival.
func TestSharedMachineConcurrentClusters(t *testing.T) {
	const p, gens = 8, 5
	m := T3D()
	cost := m.BarrierHardwareCost(p)
	errs := make(chan error, 4*2*gens*p)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCluster(m, p, int64(g))
			for run := 0; run < 2; run++ {
				if run > 0 {
					c.Reset(int64(g))
				}
				var last [gens]sim.Time
				var left [gens][]sim.Time
				for r := 0; r < p; r++ {
					c.Kernel().Go("", func(proc *sim.Proc) {
						for i := range gens {
							proc.Sleep(c.Jitter(m.Costs(OpBarrier).Send) * sim.Duration(r+1))
							last[i] = max(last[i], proc.Now())
							c.HardwareBarrierEnter(proc)
							left[i] = append(left[i], proc.Now())
						}
					})
				}
				if err := c.Kernel().Run(); err != nil {
					errs <- err
					return
				}
				for i := range gens {
					for _, at := range left[i] {
						if want := last[i].Add(cost); at != want || len(left[i]) != p {
							errs <- fmt.Errorf("cluster %d run %d generation %d: %d ranks left at %v, want %d at %v",
								g, run, i, len(left[i]), at, p, want)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNonT3DHardwareBarrierPanics(t *testing.T) {
	c := NewCluster(SP2(), 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.HardwareBarrierEnter(nil)
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6, 128: 7}
	for p, want := range cases {
		if got := Log2Ceil(p); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", p, got, want)
		}
	}
}
