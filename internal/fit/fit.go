package fit

import (
	"fmt"
	"math"
	"strings"
)

// FormKind is the p-dependence shape of one expression term.
type FormKind int

// The two shapes of Table 3.
const (
	Linear FormKind = iota // a·p + b
	Log                    // a·log2(p) + b
)

// String returns "p" or "logp".
func (k FormKind) String() string {
	if k == Log {
		return "logp"
	}
	return "p"
}

// Form is one fitted term: A·x(p) + B where x is p or log2(p).
type Form struct {
	Kind FormKind
	A, B float64
}

// Eval evaluates the form at machine size p.
func (f Form) Eval(p int) float64 {
	x := float64(p)
	if f.Kind == Log {
		if uint(p) < uint(len(log2Table)) {
			x = log2Table[p]
		} else {
			x = math.Log2(x)
		}
	}
	return f.A*x + f.B
}

// log2Table holds math.Log2(p) for every machine size below 1024, so a
// Log form answers the study's sizes with a load instead of a Log2
// call: the same values, filled by the same function.
var log2Table = func() (t [1024]float64) {
	for p := range t {
		t[p] = math.Log2(float64(p))
	}
	return t
}()

// String renders the term the way Table 3 does, e.g. "24p + 90" or
// "55logp + 30".
func (f Form) String() string {
	sign := "+"
	b := f.B
	if b < 0 {
		sign = "-"
		b = -b
	}
	return fmt.Sprintf("%s%s %s %s", trim(f.A), f.Kind, sign, trim(b))
}

func trim(v float64) string {
	s := fmt.Sprintf("%.4g", v)
	return s
}

// Expression is a full Table 3 entry: T(m,p) = Startup(p) + PerByte(p)·m
// with T in µs, m in bytes. An expression may additionally carry
// protocol-aware Segments (see Piecewise); Startup and PerByte then hold
// the global affine fit — the single-segment view legacy consumers see —
// while Eval dispatches to the segment covering m.
type Expression struct {
	Startup Form // µs
	PerByte Form // µs per byte
	// Segments, when non-empty, refine the affine model into K
	// contiguous pieces over message length, sorted by MMin with shared
	// boundary columns. Plain affine expressions leave it nil, so their
	// JSON encoding (and every pre-piecewise golden) is unchanged.
	Segments []Segment `json:"segments,omitempty"`
}

// Eval returns the predicted time in µs for message length m bytes on p
// nodes, dispatching to the covering segment for piecewise expressions.
func (e Expression) Eval(m, p int) float64 {
	if len(e.Segments) > 0 {
		seg := &e.Segments[e.segmentIdx(m)]
		return seg.Startup.Eval(p) + seg.PerByte.Eval(p)*float64(m)
	}
	return e.Startup.Eval(p) + e.PerByte.Eval(p)*float64(m)
}

// Predict is Eval with the serving clamp: a negative fitted per-byte
// rate is treated as zero when the model extrapolates (it would go
// non-physical at large m), matching model.Predictor.Time and the
// calibrated backend. Within a piecewise segment's fitted range the
// raw rate stands — a genuinely decreasing stretch (e.g. a congestion
// artifact between two measured lengths) is data, not extrapolation.
func (e Expression) Predict(m, p int) float64 {
	if len(e.Segments) > 0 {
		seg := &e.Segments[e.segmentIdx(m)]
		s := seg.PerByte.Eval(p)
		if s < 0 && m > seg.MMax {
			s = 0
		}
		return seg.Startup.Eval(p) + s*float64(m)
	}
	s := e.PerByte.Eval(p)
	if s < 0 {
		s = 0
	}
	return e.Startup.Eval(p) + s*float64(m)
}

// EvalStartup returns T0(p) in µs — for piecewise expressions, the
// global fit's startup term (anchored at the shortest message, like the
// paper's T0).
func (e Expression) EvalStartup(p int) float64 { return e.Startup.Eval(p) }

// EvalPerByte returns the asymptotic per-byte rate s(p) in µs/byte: the
// last segment's rate for piecewise expressions (the long-message slope
// behind R∞), the sole rate otherwise.
func (e Expression) EvalPerByte(p int) float64 {
	if n := len(e.Segments); n > 0 {
		return e.Segments[n-1].PerByte.Eval(p)
	}
	return e.PerByte.Eval(p)
}

// IsPiecewise reports whether the expression carries fitted segments.
func (e Expression) IsPiecewise() bool { return len(e.Segments) > 0 }

// SegmentFor returns the segment covering message length m: the first
// segment whose MMax is ≥ m, or the last segment for m beyond the
// fitted range (long-message extrapolation stays on the long-message
// piece). ok is false for plain affine expressions.
func (e Expression) SegmentFor(m int) (Segment, bool) {
	if len(e.Segments) == 0 {
		return Segment{}, false
	}
	return e.Segments[e.segmentIdx(m)], true
}

// SegmentIndex returns the index in Segments of the segment SegmentFor
// picks for m, and 0 for a plain affine expression.
func (e Expression) SegmentIndex(m int) int {
	if len(e.Segments) == 0 {
		return 0
	}
	return e.segmentIdx(m)
}

// segmentIdx locates the segment covering m (the caller guarantees
// Segments is non-empty). Fits have at most a handful of segments, so
// the scan beats a binary search.
func (e Expression) segmentIdx(m int) int {
	for i := range e.Segments {
		if m <= e.Segments[i].MMax {
			return i
		}
	}
	return len(e.Segments) - 1
}

// String renders the expression in the paper's notation, e.g.
// "(24p + 90) + (0.082p - 0.29)m"; piecewise expressions render each
// segment with its message-length range.
func (e Expression) String() string {
	if !e.IsPiecewise() {
		return fmt.Sprintf("(%s) + (%s)m", e.Startup, e.PerByte)
	}
	parts := make([]string, len(e.Segments))
	for i, seg := range e.Segments {
		parts[i] = fmt.Sprintf("(%s) + (%s)m for m∈[%d,%d]", seg.Startup, seg.PerByte, seg.MMin, seg.MMax)
	}
	return strings.Join(parts, "; ")
}

// StartupOnly reports whether the expression has no per-byte part
// (barrier rows of Table 3).
func (e Expression) StartupOnly() bool { return e.PerByte.A == 0 && e.PerByte.B == 0 }
