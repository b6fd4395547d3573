package main

import (
	"strings"
	"testing"

	"repro/internal/estimate"
	"repro/internal/measure"
	"repro/internal/sweep"
)

// TestBuildBackendPiecewise: -piecewise only means something to the
// calibrated backend, so every other backend rejects it (run turns the
// error into exit code 2) instead of running with no fit at all.
func TestBuildBackendPiecewise(t *testing.T) {
	spec := sweep.Spec{Sizes: []int{8, 32}, Lengths: []int{4, 1024}}
	pw := estimate.FitConfig{Piecewise: true}
	for _, name := range []string{"sim", "", "analytic"} {
		b, err := buildBackend(name, spec, measure.Fast(), pw, nil, nil, 1)
		if err == nil || !strings.Contains(err.Error(), "-piecewise needs the calibrated backend") {
			t.Errorf("backend %q with -piecewise: got %v, %v; want the rejection", name, b, err)
		}
	}

	b, err := buildBackend("calibrated", spec, measure.Fast(), pw, nil, nil, 1)
	if err != nil {
		t.Fatalf("calibrated with -piecewise: %v", err)
	}
	c, ok := b.(*estimate.Calibrated)
	if !ok || !c.Fit.Piecewise {
		t.Fatalf("calibrated with -piecewise built %#v, want a piecewise *estimate.Calibrated", b)
	}

	// Without -piecewise every backend builds as before.
	for _, name := range []string{"sim", "analytic", "calibrated"} {
		if _, err := buildBackend(name, spec, measure.Fast(), estimate.FitConfig{}, nil, nil, 1); err != nil {
			t.Errorf("backend %q: %v", name, err)
		}
	}
}
