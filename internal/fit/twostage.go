package fit

import "sort"

// Point is one measured collective timing: machine size P, message
// length M bytes, elapsed time Micros µs.
type Point struct {
	P      int
	M      int
	Micros float64
}

// Dataset is a collection of measured points for one (machine,
// operation) pair.
type Dataset struct {
	Points []Point
}

// Add appends a measurement.
func (d *Dataset) Add(p, m int, micros float64) {
	d.Points = append(d.Points, Point{P: p, M: m, Micros: micros})
}

// Sizes returns the sorted distinct machine sizes present.
func (d *Dataset) Sizes() []int {
	seen := map[int]bool{}
	for _, pt := range d.Points {
		seen[pt.P] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Lengths returns the sorted distinct message lengths present.
func (d *Dataset) Lengths() []int {
	seen := map[int]bool{}
	for _, pt := range d.Points {
		seen[pt.M] = true
	}
	out := make([]int, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// At returns the measured time for (p, m) and whether it exists.
func (d *Dataset) At(p, m int) (float64, bool) {
	for _, pt := range d.Points {
		if pt.P == p && pt.M == m {
			return pt.Micros, true
		}
	}
	return 0, false
}

// PerByteSlope returns s(p) in µs/byte: the through-origin fit of
// D(m, p) = T(m, p) − T(m0, p) against m − m0 over every length above
// m0 measured at p. The §8 aggregated bandwidth R∞(p) is f(p)/s(p).
// ok is false when (p, m0) or every longer length is missing.
func (d *Dataset) PerByteSlope(p, m0 int) (s float64, ok bool) {
	return d.perByteSlope(p, m0, d.Lengths())
}

// perByteSlope is PerByteSlope over the dataset's sorted lengths, which
// TwoStage computes once for all sizes.
func (d *Dataset) perByteSlope(p, m0 int, lengths []int) (s float64, ok bool) {
	base, ok := d.At(p, m0)
	if !ok {
		return 0, false
	}
	var xs, ys []float64
	for _, m := range lengths {
		if m <= m0 {
			continue
		}
		if v, ok := d.At(p, m); ok {
			xs = append(xs, float64(m-m0))
			ys = append(ys, v-base)
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	s, _ = ThroughOrigin(xs, ys)
	return s, true
}

// TwoStage fits a Table 3 expression from a dataset using the paper's
// procedure (§3, "Startup latency … approximated by measuring the
// collective messaging time for a zero-byte or a short message"):
//
//  1. T0(p) := T(m_min, p), the shortest-message timing per size.
//  2. D(m, p) := T(m, p) − T0(p); per size, fit the through-origin slope
//     s(p) of D against (m − m_min).
//  3. Fit T0(p) and s(p) against both p-shapes; keep the better fit,
//     using startupHint/perByteHint to break ties.
//
// Datasets with a single message length (barrier) produce a
// startup-only expression.
func TwoStage(d *Dataset, startupHint, perByteHint FormKind) Expression {
	sizes := d.Sizes()
	lengths := d.Lengths()
	if len(sizes) == 0 {
		panic("fit: empty dataset")
	}
	mMin := lengths[0]

	t0 := make([]float64, 0, len(sizes))
	slope := make([]float64, 0, len(sizes))
	for _, p := range sizes {
		base, ok := d.At(p, mMin)
		if !ok {
			panic("fit: dataset missing shortest-message point")
		}
		t0 = append(t0, base)
		if a, ok := d.perByteSlope(p, mMin, lengths); ok {
			slope = append(slope, a)
		}
	}

	expr := Expression{Startup: FitForm(sizes, t0, startupHint)}
	if len(slope) == len(sizes) {
		expr.PerByte = FitForm(sizes, slope, perByteHint)
	}
	return expr
}
