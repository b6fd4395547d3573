package fit

import (
	"math"
	"sort"
)

// Segment is one piece of a piecewise expression: an affine model
// T(m, p) = Startup(p) + PerByte(p)·m fitted over the message-length
// columns in [MMin, MMax]. Adjacent segments share their boundary
// column, so a piecewise fit tiles the calibrated length range with no
// gaps; the first segment also serves m < MMin and the last m > MMax.
type Segment struct {
	MMin    int  `json:"m_min"`
	MMax    int  `json:"m_max"`
	Startup Form `json:"startup"`
	PerByte Form `json:"per_byte"`
}

// PiecewiseTol is the consecutive-refit instability threshold above
// which a column boundary becomes a breakpoint candidate, and the
// worst-cell relative error at which segment selection stops splitting.
const PiecewiseTol = 0.02

// Piecewise fits K ≥ 1 affine segments over the dataset's (log-spaced)
// message-length columns — the protocol-aware refinement of TwoStage
// for machines whose message-passing layer switches regimes (eager vs.
// rendezvous-style handoff) mid-range, where a single affine model
// carries its worst error.
//
// Breakpoint candidates come from a consecutive-refit-delta probe:
// columns are refitted in ascending order, and a column whose arrival
// moves the affine coefficients by more than PiecewiseTol marks a
// regime boundary. K and the breakpoint placement are then selected by
// grid-validated relative error: greedy forward selection adds, one at
// a time, the candidate breakpoint whose segmentation best reduces the
// fit's relative error cross-checked cell by cell against the measured
// grid (the same in-sample fit-vs-simulator comparison
// `sweep -validate` runs at scale — deliberately not held-out scoring, which
// rejects segments that must memorize localized congestion artifacts
// the serving layer is expected to reproduce), and stops as soon as no
// candidate improves it, the worst cell already fits within
// PiecewiseTol, or every segment is down to two columns. K = 1 — plain
// TwoStage — therefore survives whenever the affine model already
// fits, and only genuinely multi-regime triples pay for segments; the
// probe threshold, not a held-out set, is what keeps smooth triples
// unsegmented.
//
// Datasets with fewer than four length columns, or startup-only
// datasets (barrier), always return the plain TwoStage fit.
func Piecewise(d *Dataset, startupHint, perByteHint FormKind) Expression {
	base := TwoStage(d, startupHint, perByteHint)
	lengths := d.Lengths()
	sizes := d.Sizes()
	if len(lengths) < 4 || base.StartupOnly() {
		return base
	}

	candidates := probeBreakpoints(d, lengths, startupHint, perByteHint)
	if len(candidates) == 0 {
		return base
	}

	best := base
	bestScore, bestWorst := gridError(d, base)
	var chosen []int
	// Adjacent segments share a boundary column, so n columns hold at
	// most n−1 segments.
	for len(chosen)+1 < len(lengths)-1 && len(candidates) > 0 && bestWorst > PiecewiseTol {
		addIdx := -1
		addScore, addWorst := math.Inf(1), math.Inf(1)
		var addExpr Expression
		for ci, c := range candidates {
			bps := append(append([]int(nil), chosen...), c)
			sort.Ints(bps)
			groups := segmentColumns(lengths, bps)
			segs := make([]Segment, len(groups))
			for i, cols := range groups {
				segs[i] = fitSegment(d, sizes, cols, startupHint, perByteHint)
			}
			e := Expression{Startup: base.Startup, PerByte: base.PerByte, Segments: segs}
			score, worst := gridError(d, e)
			if score < addScore {
				addScore, addWorst, addIdx, addExpr = score, worst, ci, e
			}
		}
		if addIdx < 0 || addScore >= bestScore {
			break
		}
		best, bestScore, bestWorst = addExpr, addScore, addWorst
		chosen = append(chosen, candidates[addIdx])
		candidates = append(candidates[:addIdx], candidates[addIdx+1:]...)
	}
	return best
}

// gridError cross-checks an expression against every measured grid
// point and returns the mean and worst relative error — the per-triple
// miniature of the sweep validation report.
func gridError(d *Dataset, e Expression) (mean, worst float64) {
	var sum float64
	var n int
	for _, pt := range d.Points {
		if pt.Micros == 0 {
			continue
		}
		err := math.Abs(e.Predict(pt.M, pt.P)-pt.Micros) / pt.Micros
		sum += err
		if err > worst {
			worst = err
		}
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), worst
}

// probeBreakpoints runs the consecutive-refit-delta probe: TwoStage is
// refitted on ascending column prefixes, and the boundary before a
// column whose arrival destabilizes the fit beyond PiecewiseTol becomes a
// breakpoint candidate. Candidates are returned strongest-delta first
// (ties broken by column order), as indices into lengths; a candidate
// at index i means "a new regime starts after column i", so segments
// split sharing column i.
func probeBreakpoints(d *Dataset, lengths []int, startupHint, perByteHint FormKind) []int {
	type candidate struct {
		idx   int
		delta float64
	}
	var cands []candidate
	prev := TwoStage(subset(d, lengths[:2]), startupHint, perByteHint)
	for i := 2; i < len(lengths); i++ {
		next := TwoStage(subset(d, lengths[:i+1]), startupHint, perByteHint)
		if delta := refitDelta(prev, next); delta > PiecewiseTol {
			cands = append(cands, candidate{idx: i - 1, delta: delta})
		}
		prev = next
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].delta > cands[j].delta })
	out := make([]int, 0, len(cands))
	for _, c := range cands {
		out = append(out, c.idx) // idx = i−1 ∈ [1, len−2]: always interior
	}
	return out
}

// refitDelta is the probe's readout: the largest relative coefficient
// movement between two consecutive fits, +Inf on a shape flip.
func refitDelta(a, b Expression) float64 {
	if a.Startup.Kind != b.Startup.Kind || a.PerByte.Kind != b.PerByte.Kind {
		return math.Inf(1)
	}
	var max float64
	for _, pair := range [][2]float64{
		{a.Startup.A, b.Startup.A}, {a.Startup.B, b.Startup.B},
		{a.PerByte.A, b.PerByte.A}, {a.PerByte.B, b.PerByte.B},
	} {
		den := math.Max(math.Abs(pair[0]), math.Abs(pair[1]))
		if den == 0 {
			continue
		}
		if delta := math.Abs(pair[0]-pair[1]) / den; delta > max {
			max = delta
		}
	}
	return max
}

// segmentColumns splits the sorted length columns into contiguous
// groups at the breakpoint indices (ascending), adjacent groups sharing
// their boundary column.
func segmentColumns(lengths []int, bps []int) [][]int {
	var groups [][]int
	start := 0
	for _, b := range bps {
		groups = append(groups, lengths[start:b+1])
		start = b
	}
	groups = append(groups, lengths[start:])
	return groups
}

// fitSegment fits one affine piece over the given length columns: per
// machine size, ordinary least squares of T against m; then the
// intercepts and slopes are fitted against the p-shapes like any
// Table 3 term.
func fitSegment(d *Dataset, sizes []int, cols []int, startupHint, perByteHint FormKind) Segment {
	intercepts := make([]float64, 0, len(sizes))
	slopes := make([]float64, 0, len(sizes))
	for _, p := range sizes {
		var xs, ys []float64
		for _, m := range cols {
			if v, ok := d.At(p, m); ok {
				xs = append(xs, float64(m))
				ys = append(ys, v)
			}
		}
		s, b, _ := LeastSquares(xs, ys)
		slopes = append(slopes, s)
		intercepts = append(intercepts, b)
	}
	return Segment{
		MMin:    cols[0],
		MMax:    cols[len(cols)-1],
		Startup: FitForm(sizes, intercepts, startupHint),
		PerByte: FitForm(sizes, slopes, perByteHint),
	}
}

// subset returns the dataset restricted to the given message lengths.
func subset(d *Dataset, lengths []int) *Dataset {
	keep := make(map[int]bool, len(lengths))
	for _, m := range lengths {
		keep[m] = true
	}
	out := &Dataset{Points: make([]Point, 0, len(d.Points))}
	for _, pt := range d.Points {
		if keep[pt.M] {
			out.Points = append(out.Points, pt)
		}
	}
	return out
}
