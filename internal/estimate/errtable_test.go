package estimate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// scanNearest is the linear nearest-cell scan the binary-search lookup
// replaced, kept as its oracle: the exact cell when a validated length
// in [lo, hi] matches m, otherwise the first in-range cell (in table
// order) with the smallest log distance.
func scanNearest(cells []ErrorCell, mach string, op machine.Op, m, lo, hi int) (ErrorCell, bool) {
	var best ErrorCell
	bestDist := math.Inf(1)
	found := false
	for _, c := range cells {
		if c.Machine != mach || c.Op != op || c.M < lo || c.M > hi {
			continue
		}
		if c.M == m {
			return c, true
		}
		if d := logDist(c.M, m); d < bestDist {
			best, bestDist, found = c, d, true
		}
	}
	return best, found
}

func scanBoundIn(cells []ErrorCell, mach string, op machine.Op, m, lo, hi int) (ErrorCell, bool) {
	if c, ok := scanNearest(cells, mach, op, m, lo, hi); ok {
		return c, true
	}
	return scanNearest(cells, mach, op, m, 0, math.MaxInt)
}

// TestErrorTableLookupMatchesScan checks Bound and BoundIn against the
// linear scan on seeded random tables, each searched twice: after Sort
// (in place) and unsorted (through a sorted copy). Queries cover exact
// hits, log-distance ties (lengths 0 and 3 around m = 1 are both
// ln 2 away), lengths outside a row, segments with no in-range cell,
// rows the table lacks, and barrier rows (a single m = 0 cell).
func TestErrorTableLookupMatchesScan(t *testing.T) {
	machines := []string{"Paragon", "SP2", "T3D"}
	ops := []machine.Op{machine.OpAlltoall, machine.OpBarrier, machine.OpBroadcast, machine.OpGather}
	rng := rand.New(rand.NewSource(1))
	length := func() int {
		if rng.Intn(4) == 0 {
			return rng.Intn(8) // small lengths make exact log ties likely
		}
		return 1 << rng.Intn(21)
	}
	for trial := 0; trial < 300; trial++ {
		var cells []ErrorCell
		for _, mach := range machines {
			for _, op := range ops {
				if rng.Intn(4) == 0 {
					continue // a row the table lacks
				}
				lengths := map[int]bool{}
				if op == machine.OpBarrier {
					lengths[0] = true
				} else {
					for n := 1 + rng.Intn(6); len(lengths) < n; {
						lengths[length()] = true
					}
				}
				for m := range lengths {
					cells = append(cells, ErrorCell{
						Machine: mach, Op: op, M: m,
						Median: rng.Float64(), Max: rng.Float64(), Points: 1 + rng.Intn(8),
					})
				}
			}
		}
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		unsorted := &ErrorTable{Cells: append([]ErrorCell(nil), cells...)}
		sorted := &ErrorTable{Cells: cells}
		sorted.Sort()
		for q := 0; q < 50; q++ {
			mach, op, m := machines[rng.Intn(len(machines))], ops[rng.Intn(len(ops))], length()
			if q%5 == 0 && len(cells) > 0 {
				c := cells[rng.Intn(len(cells))] // an exact hit
				mach, op, m = c.Machine, c.Op, c.M
			}
			lo, hi := length(), length()
			if lo > hi {
				lo, hi = hi, lo
			}
			wantB, okB := scanNearest(sorted.Cells, mach, op, m, 0, math.MaxInt)
			wantIn, okIn := scanBoundIn(sorted.Cells, mach, op, m, lo, hi)
			for name, table := range map[string]*ErrorTable{"sorted": sorted, "unsorted": unsorted} {
				if got, ok := table.Bound(mach, op, m); got != wantB || ok != okB {
					t.Fatalf("trial %d %s Bound(%s, %s, %d) = %+v, %v; scan %+v, %v",
						trial, name, mach, op, m, got, ok, wantB, okB)
				}
				if got, ok := table.BoundIn(mach, op, m, lo, hi); got != wantIn || ok != okIn {
					t.Fatalf("trial %d %s BoundIn(%s, %s, %d, [%d, %d]) = %+v, %v; scan %+v, %v",
						trial, name, mach, op, m, lo, hi, got, ok, wantIn, okIn)
				}
			}
		}
	}
}
