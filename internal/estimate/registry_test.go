package estimate

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
)

func TestResolveHelpersReturnTypedErrors(t *testing.T) {
	if m, err := ResolveMachine("T3D"); err != nil || m.Name() != "T3D" {
		t.Fatalf("ResolveMachine(T3D) = %v, %v", m, err)
	}
	_, err := ResolveMachine("SP3")
	var unknown *UnknownNameError
	if !errors.As(err, &unknown) {
		t.Fatalf("want *UnknownNameError, got %T", err)
	}
	if unknown.Kind != "machine" || !strings.Contains(err.Error(), "Paragon, SP2, T3D") {
		t.Fatalf("error %v", err)
	}

	if op, err := ResolveOp("allgather"); err != nil || op != machine.OpAllgather {
		t.Fatalf("ResolveOp(allgather) = %v, %v", op, err)
	}
	if _, err := ResolveOp("gossip"); !errors.As(err, &unknown) || unknown.Kind != "operation" {
		t.Fatalf("ResolveOp(gossip) = %v", err)
	}

	t3d, sp2 := machine.T3D(), machine.SP2()
	if alg, err := ResolveAlgorithm(sp2, machine.OpBroadcast, ""); err != nil || alg != "default" {
		t.Fatalf("empty algorithm = %q, %v", alg, err)
	}
	if alg, err := ResolveAlgorithm(t3d, machine.OpBarrier, "hardware"); err != nil || alg != "hardware" {
		t.Fatalf("T3D hardware barrier = %q, %v", alg, err)
	}
	// The hardware barrier needs the circuit: on the SP2 it does not
	// resolve, and the valid list must not offer it.
	_, err = ResolveAlgorithm(sp2, machine.OpBarrier, "hardware")
	if !errors.As(err, &unknown) || unknown.Kind != "algorithm" {
		t.Fatalf("SP2 hardware barrier = %v", err)
	}
	for _, v := range unknown.Valid {
		if v == "hardware" {
			t.Fatalf("SP2 valid barrier algorithms offer the hardware circuit: %v", unknown.Valid)
		}
	}
	if _, err := ResolveAlgorithm(sp2, machine.OpBroadcast, "quantum"); !errors.As(err, &unknown) {
		t.Fatalf("bad variant = %v", err)
	}
}

func TestCompareSurfacesTypedErrors(t *testing.T) {
	_, err := Compare(PaperAnalytic(), []string{"SP2", "SP3"}, machine.OpAlltoall, 8, 64, tinyCfg)
	var unknown *UnknownNameError
	if !errors.As(err, &unknown) || unknown.Name != "SP3" {
		t.Fatalf("Compare with a bad machine = %v", err)
	}
	if _, err := Compare(PaperAnalytic(), machine.Names(), "gossip", 8, 64, tinyCfg); !errors.As(err, &unknown) {
		t.Fatalf("Compare with a bad op = %v", err)
	}
}

func TestRegistryRegisterAndGet(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&Entry{Name: "a", Backend: PaperAnalytic()}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(&Entry{Name: "a", Backend: PaperAnalytic()}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(&Entry{Backend: PaperAnalytic()}); err == nil {
		t.Fatal("nameless registration accepted")
	}
	if err := r.Register(&Entry{Name: "b"}); err == nil {
		t.Fatal("backendless registration accepted")
	}
	if e, err := r.Get("a"); err != nil || e.Name != "a" {
		t.Fatalf("Get(a) = %v, %v", e, err)
	}
	_, err := r.Get("zzz")
	var unknown *UnknownNameError
	if !errors.As(err, &unknown) || unknown.Kind != "registry" || unknown.Valid[0] != "a" {
		t.Fatalf("Get(zzz) = %v", err)
	}
}

func TestStandardRegistry(t *testing.T) {
	r := StandardRegistry(RegistryConfig{Config: tinyCfg})
	want := []string{"paper-table3", "refit-default", "refit-piecewise"}
	names := r.Names()
	if len(names) != len(want) {
		t.Fatalf("names %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names %v, want %v", names, want)
		}
	}
	// The refit entries must have distinct provenances (the fit family
	// is part of the calibration identity) and both differ from paper's.
	seen := map[string]bool{}
	for _, e := range r.Entries() {
		id := e.Backend.Name() + "\x00" + e.Backend.Provenance()
		if seen[id] {
			t.Fatalf("entries share backend identity %q", id)
		}
		seen[id] = true
	}

	// Envelopes: the paper entry disowns unfitted pairs, the refit
	// entries cover everything over the calibration grid.
	paper, _ := r.Get("paper-table3")
	if _, ok := paper.Ranges(machine.SP2(), machine.OpAllgather); ok {
		t.Fatal("paper-table3 claims a range for allgather")
	}
	if rng, ok := paper.Ranges(machine.SP2(), machine.OpAlltoall); !ok || !rng.Contains(64, 1024) {
		t.Fatalf("paper-table3 alltoall range %v, %v", rng, ok)
	}
	refit, _ := r.Get("refit-default")
	rng, ok := refit.Ranges(machine.T3D(), machine.OpBroadcast)
	if !ok || rng != (Range{PMin: 8, PMax: 32, MMin: 4, MMax: 65536}) {
		t.Fatalf("refit-default broadcast range %v, %v", rng, ok)
	}
	if brng, _ := refit.Ranges(machine.T3D(), machine.OpBarrier); brng.MMax != 0 || !brng.Contains(8, 0) {
		t.Fatalf("barrier range %v", brng)
	}
	if in, _ := refit.Covers(machine.T3D(), machine.OpBroadcast, 64, 1024); in {
		t.Fatal("p=64 claims coverage on an 8..32 calibration")
	}

	// Predictor export: closed-form entries produce one, a sim-backed
	// entry cannot.
	if _, ok := paper.Predictor(machine.All(), []machine.Op{machine.OpAlltoall}); !ok {
		t.Fatal("paper entry exports no predictor")
	}
	simEntry := &Entry{Name: "sim", Backend: Sim{}}
	if _, ok := simEntry.Predictor(machine.All(), nil); ok {
		t.Fatal("sim entry claims a predictor")
	}
}

func TestRangeContainsAndString(t *testing.T) {
	r := Range{PMin: 8, PMax: 32, MMin: 4, MMax: 65536}
	for _, tc := range []struct {
		p, m int
		in   bool
	}{
		{8, 4, true}, {32, 65536, true}, {16, 1024, true},
		{4, 1024, false}, {64, 1024, false}, {16, 2, false}, {16, 131072, false},
	} {
		if got := r.Contains(tc.p, tc.m); got != tc.in {
			t.Fatalf("Contains(%d, %d) = %v", tc.p, tc.m, got)
		}
	}
	if s := r.String(); s != "p∈[8,32] m∈[4,65536]" {
		t.Fatalf("String() = %q", s)
	}
}

func TestErrorTableBound(t *testing.T) {
	table := &ErrorTable{Cells: []ErrorCell{
		{Machine: "SP2", Op: machine.OpBroadcast, M: 16, Median: 0.01, Max: 0.02, Points: 4},
		{Machine: "SP2", Op: machine.OpBroadcast, M: 1024, Median: 0.03, Max: 0.06, Points: 4},
		{Machine: "SP2", Op: machine.OpBarrier, M: 0, Median: 0.005, Max: 0.01, Points: 2},
	}}
	if c, ok := table.Bound("SP2", machine.OpBroadcast, 1024); !ok || c.Median != 0.03 {
		t.Fatalf("exact bound %v, %v", c, ok)
	}
	// 200 is nearer 16 than 1024 on a log scale? log(201/17) ≈ 2.47,
	// log(1025/201) ≈ 1.63 — 1024 wins.
	if c, ok := table.Bound("SP2", machine.OpBroadcast, 200); !ok || c.M != 1024 {
		t.Fatalf("nearest bound %v, %v", c, ok)
	}
	if c, ok := table.Bound("SP2", machine.OpBroadcast, 30); !ok || c.M != 16 {
		t.Fatalf("nearest bound below %v, %v", c, ok)
	}
	if c, ok := table.Bound("SP2", machine.OpBarrier, 0); !ok || c.Points != 2 {
		t.Fatalf("barrier bound %v, %v", c, ok)
	}
	if _, ok := table.Bound("T3D", machine.OpBroadcast, 16); ok {
		t.Fatal("bound for a machine the table never validated")
	}
	var nilTable *ErrorTable
	if _, ok := nilTable.Bound("SP2", machine.OpBroadcast, 16); ok {
		t.Fatal("nil table produced a bound")
	}
}

func TestErrorTableBoundIn(t *testing.T) {
	table := &ErrorTable{Cells: []ErrorCell{
		{Machine: "SP2", Op: machine.OpBroadcast, M: 16, Median: 0.01, Max: 0.02, Points: 4},
		{Machine: "SP2", Op: machine.OpBroadcast, M: 1024, Median: 0.03, Max: 0.06, Points: 4},
		{Machine: "SP2", Op: machine.OpBroadcast, M: 65536, Median: 0.002, Max: 0.004, Points: 4},
	}}
	// Unconstrained, m=200 resolves to 1024; confined to the low
	// segment [4, 256] it must stay at 16 — a bound is never borrowed
	// across a regime boundary.
	if c, ok := table.BoundIn("SP2", machine.OpBroadcast, 200, 4, 256); !ok || c.M != 16 {
		t.Fatalf("segment-confined bound %v, %v; want the m=16 cell", c, ok)
	}
	// Exact validated length inside the segment wins outright.
	if c, ok := table.BoundIn("SP2", machine.OpBroadcast, 1024, 256, 4096); !ok || c.M != 1024 {
		t.Fatalf("exact in-segment bound %v, %v", c, ok)
	}
	// A segment with no validated cells falls back to the nearest
	// overall — better an honest neighbor than no bound.
	if c, ok := table.BoundIn("SP2", machine.OpBroadcast, 300, 256, 512); !ok || c.M != 1024 {
		t.Fatalf("empty-segment fallback %v, %v", c, ok)
	}
	var nilTable *ErrorTable
	if _, ok := nilTable.BoundIn("SP2", machine.OpBroadcast, 16, 4, 256); ok {
		t.Fatal("nil table produced a bound")
	}
}

func TestErrorTableKeyAndDescribes(t *testing.T) {
	a := &Calibrated{Sizes: []int{4, 8}}
	b := &Calibrated{Sizes: []int{8, 32}}
	if ErrorTableKey(a) == ErrorTableKey(b) {
		t.Fatal("distinct calibration specs share an error-table key")
	}
	if ErrorTableKey(a) != ErrorTableKey(&Calibrated{Sizes: []int{4, 8}}) {
		t.Fatal("error-table key is not deterministic")
	}
	table := &ErrorTable{Backend: a.Name(), Provenance: a.Provenance()}
	if !table.Describes(a) || table.Describes(b) {
		t.Fatal("Describes mismatch")
	}
	var nilTable *ErrorTable
	if nilTable.Describes(a) {
		t.Fatal("nil table describes something")
	}
}

func TestCalibratedRangeClampsToMachine(t *testing.T) {
	// Sizes beyond a machine's allocation are dropped from the
	// envelope, exactly as they are dropped from the calibration.
	c := &Calibrated{Sizes: []int{8, 64, 128}, Lengths: []int{16, 1024}}
	rng, ok := c.Range(machine.T3D(), machine.OpBroadcast) // T3D caps at 64
	if !ok || rng != (Range{PMin: 8, PMax: 64, MMin: 16, MMax: 1024}) {
		t.Fatalf("T3D range %v, %v", rng, ok)
	}
}
