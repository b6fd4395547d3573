package fit

import (
	"math"
	"strings"
	"testing"
)

// twoRegime builds a protocol-switch dataset: eager handling below the
// switch length (shallow slope), rendezvous-style handoff above it
// (steep slope plus a fixed per-message surcharge) — the shape the
// affine model mispredicts worst in the middle.
func twoRegime(switchAt int) *Dataset {
	d := &Dataset{}
	for _, p := range []int{8, 32} {
		for _, m := range []int{4, 16, 64, 256, 1024, 4096, 16384, 65536} {
			startup := 20*float64(p) + 50
			if m <= switchAt {
				d.Add(p, m, startup+0.01*float64(p)*float64(m))
			} else {
				d.Add(p, m, startup+30*float64(p)+0.08*float64(p)*float64(m))
			}
		}
	}
	return d
}

func TestPiecewiseDegradesToAffineOnAffineData(t *testing.T) {
	want := Expression{
		Startup: Form{Kind: Linear, A: 26, B: 8.6},
		PerByte: Form{Kind: Linear, A: 0.038, B: 0.12},
	}
	got := Piecewise(synthDataset(want, 0, 1), Linear, Linear)
	if got.IsPiecewise() {
		t.Fatalf("affine data produced %d segments: %v", len(got.Segments), got)
	}
	base := TwoStage(synthDataset(want, 0, 1), Linear, Linear)
	if got.String() != base.String() {
		t.Fatalf("K=1 piecewise %v differs from TwoStage %v", got, base)
	}
}

func TestPiecewiseRecoversProtocolSwitch(t *testing.T) {
	d := twoRegime(1024)
	e := Piecewise(d, Linear, Linear)
	if !e.IsPiecewise() {
		t.Fatalf("two-regime data fitted as plain affine: %v", e)
	}
	// The affine model must be visibly wrong somewhere mid-range...
	base := TwoStage(d, Linear, Linear)
	_, baseWorst := gridError(d, base)
	if baseWorst < 0.10 {
		t.Fatalf("test data too easy: affine worst error %.3f", baseWorst)
	}
	// ...and the piecewise fit must hold every grid cell tightly.
	mean, worst := gridError(d, e)
	if mean > 0.01 || worst > 0.05 {
		t.Fatalf("piecewise grid error mean %.4f worst %.4f", mean, worst)
	}
	// A segment boundary must land on the protocol switch: some segment
	// ends at 1024 or starts at 1024.
	found := false
	for _, seg := range e.Segments {
		if seg.MMin == 1024 || seg.MMax == 1024 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no segment boundary at the m=1024 switch: %v", e.Segments)
	}
	// Segments tile the calibrated range contiguously with shared
	// boundary columns.
	for i := 1; i < len(e.Segments); i++ {
		if e.Segments[i].MMin != e.Segments[i-1].MMax {
			t.Fatalf("segments %d and %d do not share a boundary: %v", i-1, i, e.Segments)
		}
	}
}

func TestPiecewiseFewColumnsOrBarrierStayAffine(t *testing.T) {
	d := &Dataset{}
	for _, p := range []int{8, 32} {
		for _, m := range []int{4, 1024, 65536} {
			d.Add(p, m, float64(100*p)+0.05*float64(m))
		}
	}
	if e := Piecewise(d, Linear, Linear); e.IsPiecewise() {
		t.Fatalf("3-column dataset fitted piecewise: %v", e)
	}
	b := &Dataset{}
	for _, p := range []int{2, 4, 8, 16, 32} {
		b.Add(p, 0, 123*math.Log2(float64(p))-90)
	}
	if e := Piecewise(b, Log, Log); e.IsPiecewise() || !e.StartupOnly() {
		t.Fatalf("barrier dataset fitted piecewise: %v", e)
	}
}

func TestSegmentDispatchAndClamp(t *testing.T) {
	e := Expression{
		Startup: Form{Kind: Linear, A: 1, B: 10},
		PerByte: Form{Kind: Linear, A: 0, B: 0.05},
		Segments: []Segment{
			{MMin: 4, MMax: 1024,
				Startup: Form{Kind: Linear, A: 1, B: 10}, PerByte: Form{Kind: Linear, A: 0, B: 0.01}},
			{MMin: 1024, MMax: 16384,
				Startup: Form{Kind: Linear, A: 1, B: 500}, PerByte: Form{Kind: Linear, A: 0, B: -0.002}},
			{MMin: 16384, MMax: 65536,
				Startup: Form{Kind: Linear, A: 1, B: 20}, PerByte: Form{Kind: Linear, A: 0, B: 0.08}},
		},
	}
	p := 8
	// Below the first segment and at its boundary: first segment.
	if got, want := e.Predict(0, p), 18.0; !almost(got, want, 1e-9) {
		t.Fatalf("m=0: %v, want %v", got, want)
	}
	if got, want := e.Predict(1024, p), 18+0.01*1024; !almost(got, want, 1e-9) {
		t.Fatalf("m=1024 dispatches to segment 0: %v, want %v", got, want)
	}
	// Interior negative slope is data, not extrapolation — no clamp.
	if got, want := e.Predict(4096, p), 508-0.002*4096; !almost(got, want, 1e-9) {
		t.Fatalf("m=4096 keeps the negative interior slope: %v, want %v", got, want)
	}
	// Beyond the last segment: extrapolate on the last piece.
	if got, want := e.Predict(1<<20, p), 28+0.08*float64(1<<20); !almost(got, want, 1e-9) {
		t.Fatalf("m=1M extrapolates the last segment: %v, want %v", got, want)
	}
	// A negative last-segment slope clamps beyond its fitted range.
	neg := Expression{Segments: []Segment{
		{MMin: 4, MMax: 1024,
			Startup: Form{Kind: Linear, A: 0, B: 100}, PerByte: Form{Kind: Linear, A: 0, B: -0.01}},
	}}
	if got, want := neg.Predict(1<<20, p), 100.0; !almost(got, want, 1e-9) {
		t.Fatalf("negative slope beyond the range must clamp: %v, want %v", got, want)
	}
	if got, want := neg.Predict(1024, p), 100-0.01*1024; !almost(got, want, 1e-9) {
		t.Fatalf("negative slope inside the range must stand: %v, want %v", got, want)
	}
	// EvalPerByte reports the asymptotic (last-segment) rate.
	if got := e.EvalPerByte(p); !almost(got, 0.08, 1e-12) {
		t.Fatalf("EvalPerByte = %v, want the last segment's 0.08", got)
	}
	// String renders every segment with its range.
	s := e.String()
	for _, want := range []string{"m∈[4,1024]", "m∈[1024,16384]", "m∈[16384,65536]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
