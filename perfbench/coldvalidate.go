package main

import (
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/estimate"
	"repro/internal/sweep"
)

// coldValidate is the preparation workload: `sweep -validate` followed
// by `sweep -validate -piecewise`, each pass from a fresh memo and an
// empty cache directory, repeated until the run's time is used (at
// least three passes). It never starts a server.
func coldValidate(b *bench) (*result, error) {
	res := &result{}
	cfg := methodology(b.seed)
	scns, err := defaultGrid(cfg)
	if err != nil {
		return nil, err
	}
	var passes []float64
	var lats []time.Duration
	var first *deployment
	start := time.Now()
	for len(passes) < 3 || time.Since(start) < b.dur {
		// Every pass starts from the same state: no garbage and no cache
		// files left by the pass before.
		runtime.GC()
		t0 := time.Now()
		d, err := prepare(b.dir, cfg, scns, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, time.Since(t0).Seconds())
		lats = append(lats, d.simLat...)
		res.attempted += len(d.affine.pairs) + len(d.piecewise.pairs)
		if err := checkValidation(res, d, first); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(d.dir); err != nil {
			return nil, err
		}
		if first == nil {
			first = d
		}
	}
	ms := millis(lats)
	res.note("cold-validate: %d passes of %d + %d validated scenarios: %.3f s", len(passes), len(scns), len(scns), passes)
	res.note("cold-validate: latency is per simulated scenario of the sim passes, %d samples, %d beyond p99", len(ms), len(ms)/100)
	res.note("cold-validate: error_ratio %d/%d", res.failed, res.attempted)
	pass := median(passes)
	res.add("setup_s", "s", pass)
	res.add("scenarios_per_s", "1/s", float64(2*len(scns))/pass)
	res.add("lat_p50_ms", "ms", quantile(ms, 0.50))
	res.add("lat_p99_ms", "ms", quantile(ms, 0.99))
	addValidation(res, first)
	res.add("rss_peak_mb", "MiB", peakRSSMB())
	return res, nil
}

// checkValidation recomputes a deployment's validation independently of
// sweep.BuildErrorTable — the cell count and the worst relative error —
// and checks the persisted tables against it. Every pass of one run
// must also reproduce the first pass's tables exactly (same seed).
func checkValidation(res *result, d, first *deployment) error {
	cache, err := sweep.OpenCache(d.dir)
	if err != nil {
		return err
	}
	for i, v := range []validation{d.affine, d.piecewise} {
		cells := map[[3]any]bool{}
		worst := 0.0
		for _, p := range v.pairs {
			cells[[3]any{p.Scenario.Machine, p.Scenario.Op, p.Scenario.M}] = true
			if p.RefMicros != 0 {
				worst = math.Max(worst, math.Abs(p.EstMicros-p.RefMicros)/p.RefMicros)
			}
		}
		tableWorst := 0.0
		for _, c := range v.table.Cells {
			tableWorst = math.Max(tableWorst, c.Max)
		}
		if len(cells) != len(v.table.Cells) || worst != tableWorst {
			res.failed++
			res.mismatch("validation %d: %d cells, rel_err_max %v; recomputed %d cells, %v",
				i, len(v.table.Cells), tableWorst, len(cells), worst)
		}
		stored, ok := cache.GetErrorTable(estimate.ErrorTableKey(v.candidate))
		if !ok || !stored.Describes(v.candidate) || len(stored.Cells) != len(v.table.Cells) {
			res.failed++
			res.mismatch("validation %d: persisted error table missing or different", i)
		}
		if first != nil {
			prev := []validation{first.affine, first.piecewise}[i]
			for j, c := range v.table.Cells {
				if j >= len(prev.table.Cells) || c != prev.table.Cells[j] {
					res.failed++
					res.mismatch("validation %d: cell %d differs between passes of one seed", i, j)
					break
				}
			}
		}
	}
	return nil
}
