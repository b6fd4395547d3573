package sweep

import (
	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/stats"
)

// BuildErrorTable condenses a validation's paired results into the
// loadable per-(machine, op, m) error table for candidate backend b —
// the same cells the validation report prints, with machine sizes and
// algorithm variants pooled per cell. Cells are sorted by
// (machine, op, m), so the table serializes deterministically.
func BuildErrorTable(b estimate.Backend, pairs []Paired) estimate.ErrorTable {
	type cellKey struct {
		mach string
		op   string
		m    int
	}
	errs := map[cellKey][]float64{}
	for _, pr := range pairs {
		k := cellKey{pr.Scenario.Machine, string(pr.Scenario.Op), pr.Scenario.M}
		errs[k] = append(errs[k], pr.RelError())
	}
	t := estimate.ErrorTable{
		Backend:    b.Name(),
		Provenance: b.Provenance(),
		Cells:      make([]estimate.ErrorCell, 0, len(errs)),
	}
	for k, es := range errs {
		t.Cells = append(t.Cells, estimate.ErrorCell{
			Machine: k.mach, Op: machine.Op(k.op), M: k.m,
			Median: stats.Median(es), Max: maxOf(es), Points: len(es),
		})
	}
	t.Sort()
	return t
}

// AttachBounds loads each registry entry's persisted error table from
// the cache (by the entry backend's content key) and wires it to the
// entry, returning how many entries gained bounds. Tables whose backend
// identity drifted from the entry's are ignored — stale bounds must
// never annotate fresh fits. Call during setup, before serving.
func AttachBounds(reg *estimate.Registry, c *Cache) int {
	if c == nil {
		return 0
	}
	n := 0
	for _, e := range reg.Entries() {
		t, ok := c.GetErrorTable(estimate.ErrorTableKey(e.Backend))
		if !ok || !t.Describes(e.Backend) {
			continue
		}
		t.Sort() // a stored table's cell order is not guaranteed
		e.Bounds = &t
		n++
	}
	return n
}
