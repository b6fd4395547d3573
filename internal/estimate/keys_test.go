package estimate

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
)

// TestPersistedKeysPinned fixes the on-disk identity of the two refit
// calibrations: the backend provenance (which keys sweep-cache results
// and error tables) and a triple's expression key (which names its
// *.expr.json file). Any change to the key JSON — a member dropped,
// renamed or reordered, a default moved — orphans every persisted cache
// entry, so it must come with a calibrationVersion bump and new pins.
func TestPersistedKeysPinned(t *testing.T) {
	mach := machine.T3D()
	op := machine.OpAlltoall
	alg := mpi.DefaultAlgorithms(mach).Get(op)
	for _, tc := range []struct {
		name            string
		fit             FitConfig
		provenance, key string
	}{
		{"affine", FitConfig{},
			"72f46a063bb34c734f037c19d8a043192ff086e8f9c0c47b8ffdaf48c56fc94d",
			"5f763f5a5cdef0d93dc4e8843a2db45504059528fc9a96963602b42af6efee16"},
		{"piecewise", FitConfig{Piecewise: true},
			"b41278cce7eadb61fb7b045c4dcd7c9834176d05466be7d3f95d2d25c13f9409",
			"9969752e2518d7a5dc742ed5270e9a623efc91ba25dd02189f666a33b448725d"},
	} {
		c := &Calibrated{Config: measure.Fast(), Sizes: DefaultCalibrationSizes, Fit: tc.fit}
		if got := c.Provenance(); got != tc.provenance {
			t.Errorf("%s: Provenance() = %s, want %s", tc.name, got, tc.provenance)
		}
		key := expressionKey(mach, op, alg, c.sizesFor(mach), c.lengthsFor(op), c.config(), c.Fit)
		if key != tc.key {
			t.Errorf("%s: expression key = %s, want %s", tc.name, key, tc.key)
		}
	}
}
