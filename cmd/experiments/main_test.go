package main

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/estimate"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
)

// -update regenerates the golden document instead of comparing
// against it:
//
//	go test ./cmd/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/EXPERIMENTS.golden.md")

// TestGoldenSim pins the whole rendered document on the sim backend
// under the fast methodology: the bytes `go run ./cmd/experiments`
// writes.
func TestGoldenSim(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the full §2 grid")
	}
	cfg, method := methodology(false)
	g, err := buildGrid(cfg, estimate.Sim{}, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := render(&got, g, method); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "EXPERIMENTS.golden.md")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s drifted from the golden (%d vs %d bytes); run with -update after verifying the change is intended",
			path, got.Len(), len(want))
	}
}

// TestOffGridLookupLeavesBandwidth checks that estimating a point the
// §2 sweep skips (the §8 example's m=512) does not feed it into the
// per-byte slope behind R∞: bandwidth must not depend on lookup order.
func TestOffGridLookupLeavesBandwidth(t *testing.T) {
	// A curved T(m) so that any extra point would move the slope.
	d := &fit.Dataset{}
	for _, m := range []int{4, 1024, 16384, 65536} {
		d.Add(64, m, 100+0.05*float64(m)+1e-6*float64(m)*float64(m))
	}
	g := &grid{
		cfg:     measure.Fast(),
		backend: estimate.PaperAnalytic(),
		data:    map[string]map[machine.Op]*fit.Dataset{"T3D": {machine.OpAlltoall: d}},
		offGrid: map[offGridKey]float64{},
	}
	before := g.bandwidth("T3D", machine.OpAlltoall, 64)
	v := g.at("T3D", machine.OpAlltoall, 64, 512)
	after := g.bandwidth("T3D", machine.OpAlltoall, 64)
	if math.Float64bits(before) != math.Float64bits(after) {
		t.Fatalf("R∞(64) moved from %v to %v after the off-grid lookup", before, after)
	}
	if again := g.at("T3D", machine.OpAlltoall, 64, 512); again != v {
		t.Fatalf("off-grid point re-estimated: %v then %v", v, again)
	}
	if before <= 0 {
		t.Fatalf("R∞(64) = %v, want positive", before)
	}
}
