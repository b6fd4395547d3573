package fit

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLeastSquaresExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	a, b, sse := LeastSquares(xs, ys)
	if !almost(a, 2, 1e-12) || !almost(b, 3, 1e-12) || sse > 1e-18 {
		t.Fatalf("a=%v b=%v sse=%v", a, b, sse)
	}
}

func TestLeastSquaresConstant(t *testing.T) {
	a, b, _ := LeastSquares([]float64{2, 2, 2}, []float64{7, 9, 8})
	if a != 0 || !almost(b, 8, 1e-12) {
		t.Fatalf("a=%v b=%v", a, b)
	}
}

func TestThroughOriginExact(t *testing.T) {
	a, sse := ThroughOrigin([]float64{1, 2, 4}, []float64{3, 6, 12})
	if !almost(a, 3, 1e-12) || sse > 1e-18 {
		t.Fatalf("a=%v sse=%v", a, sse)
	}
}

func TestPropertyLeastSquaresRecoversNoiselessLine(t *testing.T) {
	prop := func(a8, b8 int8) bool {
		a, b := float64(a8)/4, float64(b8)/4
		xs := []float64{1, 2, 3, 5, 8, 13}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x + b
		}
		ga, gb, _ := LeastSquares(xs, ys)
		return almost(ga, a, 1e-9) && almost(gb, b, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitFormSelectsLinear(t *testing.T) {
	ps := []int{2, 4, 8, 16, 32, 64}
	ys := make([]float64, len(ps))
	for i, p := range ps {
		ys[i] = 24*float64(p) + 90
	}
	f := FitForm(ps, ys, Log) // hint should not override clear data
	if f.Kind != Linear || !almost(f.A, 24, 1e-9) || !almost(f.B, 90, 1e-6) {
		t.Fatalf("got %v", f)
	}
}

func TestFitFormSelectsLog(t *testing.T) {
	ps := []int{2, 4, 8, 16, 32, 64, 128}
	ys := make([]float64, len(ps))
	for i, p := range ps {
		ys[i] = 55*math.Log2(float64(p)) + 30
	}
	f := FitForm(ps, ys, Linear)
	if f.Kind != Log || !almost(f.A, 55, 1e-9) || !almost(f.B, 30, 1e-6) {
		t.Fatalf("got %v", f)
	}
}

func TestFitFormNoisyStillPicksRightShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := []int{2, 4, 8, 16, 32, 64, 128}
	ys := make([]float64, len(ps))
	for i, p := range ps {
		ys[i] = (26*float64(p) + 8.6) * (1 + 0.05*rng.Float64())
	}
	if f := FitForm(ps, ys, Log); f.Kind != Linear {
		t.Fatalf("noisy linear data fitted as %v", f)
	}
}

func TestFormEvalAndString(t *testing.T) {
	f := Form{Kind: Linear, A: 24, B: 90}
	if f.Eval(64) != 24*64+90 {
		t.Fatal("linear eval")
	}
	g := Form{Kind: Log, A: 55, B: -30}
	if !almost(g.Eval(64), 55*6-30, 1e-12) {
		t.Fatal("log eval")
	}
	if got := g.String(); !strings.Contains(got, "logp") || !strings.Contains(got, "- 30") {
		t.Fatalf("string: %q", got)
	}
}

func TestExpressionEvalMatchesPaperExample(t *testing.T) {
	// Paper §8: T3D total exchange (26p + 8.6) + (0.038p − 0.12)m at
	// m=512, p=64 is 2.86 ms.
	e := Expression{
		Startup: Form{Kind: Linear, A: 26, B: 8.6},
		PerByte: Form{Kind: Linear, A: 0.038, B: -0.12},
	}
	got := e.Eval(512, 64)
	if !almost(got, 2856.3, 0.5) {
		t.Fatalf("T(512,64) = %v µs, want ≈2856 (paper: 2.86 ms)", got)
	}
}

func TestExpressionString(t *testing.T) {
	e := Expression{
		Startup: Form{Kind: Linear, A: 24, B: 90},
		PerByte: Form{Kind: Linear, A: 0.082, B: -0.29},
	}
	s := e.String()
	if !strings.Contains(s, "24p + 90") || !strings.Contains(s, "0.082p - 0.29") {
		t.Fatalf("rendered %q", s)
	}
}

func TestStartupOnly(t *testing.T) {
	e := Expression{Startup: Form{Kind: Log, A: 123, B: -90}}
	if !e.StartupOnly() {
		t.Fatal("barrier expression should be startup-only")
	}
}

func synthDataset(e Expression, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for _, p := range []int{2, 4, 8, 16, 32, 64, 128} {
		for _, m := range []int{4, 64, 1024, 4096, 16384, 65536} {
			v := e.Eval(m, p) * (1 + noise*rng.Float64())
			d.Add(p, m, v)
		}
	}
	return d
}

func TestTwoStageRecoversLinearExpression(t *testing.T) {
	want := Expression{
		Startup: Form{Kind: Linear, A: 26, B: 8.6},
		PerByte: Form{Kind: Linear, A: 0.038, B: 0.12},
	}
	got := TwoStage(synthDataset(want, 0, 1), Linear, Linear)
	if got.Startup.Kind != Linear || got.PerByte.Kind != Linear {
		t.Fatalf("wrong shapes: %v", got)
	}
	// T0 was estimated from the m=4 point, so its B absorbs ≈4·s(p);
	// allow that bias.
	if !almost(got.Startup.A, 26, 0.2) || !almost(got.PerByte.A, 0.038, 1e-3) {
		t.Fatalf("coefficients drifted: %v", got)
	}
}

func TestTwoStageRecoversLogExpression(t *testing.T) {
	want := Expression{
		Startup: Form{Kind: Log, A: 55, B: 30},
		PerByte: Form{Kind: Log, A: 0.014, B: 0.053},
	}
	got := TwoStage(synthDataset(want, 0, 1), Log, Log)
	if got.Startup.Kind != Log || got.PerByte.Kind != Log {
		t.Fatalf("wrong shapes: %+v", got)
	}
	if !almost(got.Startup.A, 55, 0.2) || !almost(got.PerByte.A, 0.014, 1e-3) {
		t.Fatalf("coefficients drifted: %+v", got)
	}
}

func TestTwoStageToleratesNoise(t *testing.T) {
	want := Expression{
		Startup: Form{Kind: Linear, A: 97, B: 82},
		PerByte: Form{Kind: Linear, A: 0.073, B: 0.10},
	}
	got := TwoStage(synthDataset(want, 0.05, 7), Linear, Linear)
	if got.Startup.Kind != Linear {
		t.Fatalf("noise flipped the startup shape: %+v", got)
	}
	if math.Abs(got.Startup.A-97)/97 > 0.15 || math.Abs(got.PerByte.A-0.073)/0.073 > 0.15 {
		t.Fatalf("noisy recovery off by >15%%: %+v", got)
	}
}

func TestTwoStageBarrierStartupOnly(t *testing.T) {
	d := &Dataset{}
	for _, p := range []int{2, 4, 8, 16, 32} {
		d.Add(p, 0, 123*math.Log2(float64(p))-90)
	}
	e := TwoStage(d, Log, Log)
	if !e.StartupOnly() {
		t.Fatalf("barrier fit has a per-byte part: %+v", e)
	}
	if !almost(e.Startup.A, 123, 1e-6) {
		t.Fatalf("startup = %+v", e.Startup)
	}
}

func TestDatasetAccessors(t *testing.T) {
	d := &Dataset{}
	d.Add(4, 16, 100)
	d.Add(2, 64, 50)
	d.Add(4, 64, 120)
	if s := d.Sizes(); len(s) != 2 || s[0] != 2 || s[1] != 4 {
		t.Fatalf("sizes %v", s)
	}
	if l := d.Lengths(); len(l) != 2 || l[0] != 16 || l[1] != 64 {
		t.Fatalf("lengths %v", l)
	}
	if v, ok := d.At(4, 64); !ok || v != 120 {
		t.Fatalf("At = %v %v", v, ok)
	}
	if _, ok := d.At(8, 64); ok {
		t.Fatal("phantom point")
	}
}

func TestRSquared(t *testing.T) {
	ps := []int{2, 4, 8, 16}
	perfect := make([]float64, len(ps))
	f := Form{Kind: Linear, A: 3, B: 1}
	for i, p := range ps {
		perfect[i] = f.Eval(p)
	}
	if r := RSquared(f, ps, perfect); !almost(r, 1, 1e-12) {
		t.Fatalf("perfect fit r² = %v", r)
	}
	bad := Form{Kind: Linear, A: 0, B: 0}
	if r := RSquared(bad, ps, perfect); r > 0.5 {
		t.Fatalf("bad fit r² = %v", r)
	}
}

// TestFormEvalMatchesLog2: Eval's table of log2(p) gives every Log form
// the bits math.Log2 gives, across the table and past its end.
func TestFormEvalMatchesLog2(t *testing.T) {
	forms := []Form{{Log, 55.3, 30.1}, {Log, -0.013, 2.5e-3}, {Log, 1, 0}, {Linear, 24.2, 90.7}}
	for _, f := range forms {
		for p := 1; p <= 1100; p++ {
			x := float64(p)
			if f.Kind == Log {
				x = math.Log2(float64(p))
			}
			want := f.A*x + f.B
			if got := f.Eval(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v.Eval(%d) = %v, want %v", f, p, got, want)
			}
		}
	}
}
