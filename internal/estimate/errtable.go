package estimate

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/machine"
)

// errorTableVersion is baked into ErrorTableKey; bump it when the table
// semantics change in a way the key fields do not capture.
const errorTableVersion = 1

// ErrorTable records the observed accuracy of a closed-form backend
// against the simulator, per (machine, op, message length) cell — the
// data behind the validation report's error matrix, in a loadable form.
// Attached to a registry entry it turns bare predictions into
// error-bounded ones: (value, expected relative error).
type ErrorTable struct {
	// Backend and Provenance identify the candidate backend the errors
	// were measured for; a table never describes a backend with a
	// different provenance (a recalibration invalidates it).
	Backend    string `json:"backend"`
	Provenance string `json:"provenance"`
	// Cells are sorted by (machine, op, m) so the table serializes
	// deterministically and lookups can binary-search it (see Sort).
	Cells []ErrorCell `json:"cells"`

	// sorted records that Sort has put Cells in order.
	sorted bool
}

// Sort puts Cells in (machine, op, m) order, a no-op on a table that
// already is, and marks the table so Bound and BoundIn search Cells in
// place. Call it once after building or loading a table, before
// serving from it, and again after any edit to Cells. A table never
// sorted still answers correctly, from a sorted copy per lookup.
func (t *ErrorTable) Sort() {
	if !slices.IsSortedFunc(t.Cells, compareCells) {
		slices.SortStableFunc(t.Cells, compareCells)
	}
	t.sorted = true
}

func compareCells(a, b ErrorCell) int {
	if c := strings.Compare(a.Machine, b.Machine); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.Op), string(b.Op)); c != 0 {
		return c
	}
	return cmp.Compare(a.M, b.M)
}

// ErrorCell is one (machine, op, m) slice of a validation: the relative
// errors of every validated scenario in the cell (machine sizes and
// algorithm variants pooled), summarized.
type ErrorCell struct {
	Machine string     `json:"machine"`
	Op      machine.Op `json:"op"`
	M       int        `json:"m"`
	// Median and Max are the cell's relative-error summary
	// (|estimate − sim| / sim over the headline time).
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	// Points is how many validated scenarios the cell pools.
	Points int `json:"points"`
}

// Bound returns the cell covering (mach, op, m): the exact cell when the
// validation grid contained that message length, otherwise the cell with
// the nearest length on a log scale (closed-form error varies smoothly
// in m, so the neighbor is the honest stand-in). ok is false when the
// table has no (machine, op) rows at all. A nil table bounds nothing.
func (t *ErrorTable) Bound(mach string, op machine.Op, m int) (ErrorCell, bool) {
	return t.nearest(mach, op, m, 0, math.MaxInt)
}

// BoundIn is Bound constrained to validated lengths within [lo, hi] —
// the lookup the serving layer uses for piecewise answers, so the
// expected error annotated on an answer is measured on the same
// protocol segment that produced the number, never borrowed across a
// regime boundary. When no cell lies inside the range (a validation
// sparser than the calibration grid) it falls back to the
// unconstrained nearest-length lookup.
func (t *ErrorTable) BoundIn(mach string, op machine.Op, m, lo, hi int) (ErrorCell, bool) {
	if c, ok := t.nearest(mach, op, m, lo, hi); ok {
		return c, true
	}
	return t.Bound(mach, op, m)
}

// nearest is the one nearest-cell lookup behind Bound and BoundIn: the
// exact cell when a validated length in [lo, hi] matches m, otherwise
// the in-range cell with the nearest length on a log scale, the shorter
// one on a tie. Binary searches find the (machine, op) row, its cells
// in [lo, hi], and m's place among them; the log being monotone, the
// nearest cell is one of m's two neighbours.
func (t *ErrorTable) nearest(mach string, op machine.Op, m, lo, hi int) (ErrorCell, bool) {
	if t == nil {
		return ErrorCell{}, false
	}
	cells := t.Cells
	if !t.sorted {
		cells = slices.Clone(cells)
		slices.SortStableFunc(cells, compareCells)
	}
	row := func(x int) int { // orders cell x's (machine, op) against the wanted pair
		if c := strings.Compare(cells[x].Machine, mach); c != 0 {
			return c
		}
		return strings.Compare(string(cells[x].Op), string(op))
	}
	i := sort.Search(len(cells), func(x int) bool { return row(x) >= 0 })
	j := i + sort.Search(len(cells)-i, func(x int) bool { return row(i+x) > 0 })
	cells = cells[i:j]
	i = sort.Search(len(cells), func(x int) bool { return cells[x].M >= lo })
	j = sort.Search(len(cells), func(x int) bool { return cells[x].M > hi })
	if i >= j {
		return ErrorCell{}, false
	}
	in := cells[i:j]
	k := sort.Search(len(in), func(x int) bool { return in[x].M >= m })
	switch {
	case k == len(in):
		return in[k-1], true
	case in[k].M == m || k == 0:
		return in[k], true
	case logDist(in[k].M, m) < logDist(in[k-1].M, m):
		return in[k], true
	}
	return in[k-1], true
}

// logDist measures how far apart two message lengths are on a log
// scale, shifted by one so zero-length (barrier) cells compare cleanly.
func logDist(a, b int) float64 {
	return math.Abs(math.Log(float64(a)+1) - math.Log(float64(b)+1))
}

// ErrorTableKey is the content key an error table is persisted under:
// the candidate backend's identity and provenance, so a table written by
// one validation run is found by any process constructing the same
// backend — and silently missed by one whose calibration spec drifted.
func ErrorTableKey(b Backend) string {
	blob, err := json.Marshal(struct {
		V          int    `json:"v"`
		Backend    string `json:"backend"`
		Provenance string `json:"provenance"`
	}{errorTableVersion, b.Name(), b.Provenance()})
	if err != nil {
		panic(fmt.Sprintf("estimate: error table key %s: %v", b.Name(), err))
	}
	return hashJSON(blob)
}

// Describes reports whether the table was measured for b (same backend
// name and provenance) — the match AttachBounds enforces before wiring a
// table to a registry entry.
func (t *ErrorTable) Describes(b Backend) bool {
	return t != nil && t.Backend == b.Name() && t.Provenance == b.Provenance()
}
