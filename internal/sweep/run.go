package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"

	"repro/internal/coll"
)

// Result is one executed (or cache-served) scenario.
type Result struct {
	Scenario Scenario       `json:"scenario"`
	Sample   measure.Sample `json:"sample"`
	Cached   bool           `json:"cached"`
	// Backend names the estimation backend that produced (or, for
	// cached results, originally produced) the sample.
	Backend string `json:"backend,omitempty"`
}

// Progress describes one completed scenario, reported in completion
// order (which varies with scheduling; the result slice does not).
type Progress struct {
	Done, Total int
	Scenario    Scenario
	Cached      bool
	Micros      float64
}

// Runner runs scenarios on a worker pool, each worker claiming the next
// pending scenario as it finishes one, so a slow scenario holds up only
// its own worker. Every scenario is an independent estimate — under the
// sim backend its own cluster, kernel, and RNG seeded from the scenario
// — so results are identical regardless of worker count; only
// wall-clock time changes.
type Runner struct {
	// Workers is the pool size; ≤ 0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, serves repeated scenarios without
	// re-estimating and persists fresh results. Keys carry the
	// backend's identity and provenance, so switching backends (or
	// recalibrating one) never serves another backend's numbers.
	Cache *Cache
	// Backend is the estimation strategy; nil means the exact
	// simulator backend (estimate.Sim).
	Backend estimate.Backend
	// OnProgress, when non-nil, is called after each scenario (from a
	// single goroutine at a time).
	OnProgress func(Progress)
	// Metrics, when non-nil, records cache outcomes and per-phase
	// timings (see NewMetrics). Nil costs nothing.
	Metrics *Metrics
}

// Run executes all scenarios and returns results in scenario order.
// Scenarios must come from Spec.Expand (or satisfy the same
// invariants); an invalid algorithm or machine panics, matching the
// measure package's contract.
//
// Run proceeds in phases: cache hits are served first, from one pass
// over the cache's sample segments; then, when the backend is a
// *estimate.Calibrated, every triple the remaining scenarios touch is
// precalibrated through a worker pool of the same size, so cold
// calibration parallelizes across triples instead of serializing
// behind the first scenario that needs each one; finally the remaining
// scenarios are estimated in parallel. Fresh results persist as one
// cache segment per span: the pending scenarios fall into contiguous
// spans of n/(4·workers)+1, and whichever worker finishes a span's last
// scenario writes the span's segment.
func (r *Runner) Run(scenarios []Scenario) []Result {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) && len(scenarios) > 0 {
		workers = len(scenarios)
	}
	backend := r.Backend
	if backend == nil {
		backend = estimate.Sim{}
	}
	backendID := BackendID(backend)

	// Per-machine state shared by all workers, resolved once.
	mctx := map[string]*machineCtx{}
	for _, sc := range scenarios {
		if _, ok := mctx[sc.Machine]; ok {
			continue
		}
		m := machine.ByName(sc.Machine)
		if m == nil {
			panic(fmt.Sprintf("sweep: unknown machine %q", sc.Machine))
		}
		c := &machineCtx{m: m, defaults: mpi.DefaultAlgorithms(m)}
		if r.Cache != nil {
			c.fingerprint = Fingerprint(m)
		}
		mctx[sc.Machine] = c
	}

	results := make([]Result, len(scenarios))
	done := 0
	var progressMu sync.Mutex
	report := func(i int) {
		if r.OnProgress == nil {
			return
		}
		progressMu.Lock()
		done++
		r.OnProgress(Progress{
			Done: done, Total: len(scenarios),
			Scenario: scenarios[i],
			Cached:   results[i].Cached,
			Micros:   results[i].Sample.Micros,
		})
		progressMu.Unlock()
	}

	// phaseClock reads the monotonic clock only when metrics are
	// attached, keeping the Metrics field's "nil costs nothing" promise.
	phaseClock := func() time.Time {
		if r.Metrics == nil {
			return time.Time{}
		}
		return time.Now()
	}
	endPhase := func(phase int, start time.Time) {
		if r.Metrics != nil {
			r.Metrics.observePhase(phase, time.Since(start))
		}
	}

	// Phase 1: serve cache hits, leaving the misses pending.
	phaseStart := phaseClock()
	pending := make([]int, 0, len(scenarios))
	keys := make([]string, len(scenarios))
	if r.Cache != nil {
		claim(workers, len(scenarios), func(i int) {
			sc := scenarios[i]
			keys[i] = sc.Key(mctx[sc.Machine].fingerprint, backendID)
		})
		hits := r.Cache.lookup(keys)
		for i, sc := range scenarios {
			s, ok := hits[keys[i]]
			if !ok {
				pending = append(pending, i)
				continue
			}
			results[i] = Result{Scenario: sc, Sample: s, Cached: true, Backend: backend.Name()}
			report(i)
		}
	} else {
		for i := range scenarios {
			pending = append(pending, i)
		}
	}
	endPhase(phaseCache, phaseStart)
	if r.Cache != nil {
		r.Metrics.cacheLookups(len(scenarios)-len(pending), len(pending))
	}

	// Phase 2: bulk-calibrate the triples the pending scenarios need.
	phaseStart = phaseClock()
	if cal, ok := backend.(*estimate.Calibrated); ok && len(pending) > 0 {
		triples := make([]estimate.Triple, 0, len(pending))
		for _, i := range pending {
			sc := scenarios[i]
			triples = append(triples, estimate.Triple{
				Machine: mctx[sc.Machine].m, Op: sc.Op, Alg: sc.Algorithm,
			})
		}
		cal.Precalibrate(triples, workers)
	}
	endPhase(phaseCalibrate, phaseStart)

	// Phase 3: estimate what the cache could not serve.
	phaseStart = phaseClock()
	span := len(pending)/(4*min(workers, max(len(pending), 1))) + 1
	left := make([]atomic.Int32, (len(pending)+span-1)/span)
	for s := range left {
		left[s].Store(int32(min(span, len(pending)-s*span)))
	}
	claim(workers, len(pending), func(j int) {
		i := pending[j]
		sc := scenarios[i]
		results[i] = runOne(sc, mctx[sc.Machine], backend)
		report(i)
		if s := j / span; left[s].Add(-1) == 0 && r.Cache != nil {
			lo, hi := s*span, min((s+1)*span, len(pending))
			seg := make([]entry, 0, hi-lo)
			for _, i := range pending[lo:hi] {
				seg = append(seg, entry{Key: keys[i], ID: scenarios[i].ID(), Sample: results[i].Sample})
			}
			_ = r.Cache.putSegment(seg) // best-effort; a full disk must not fail the sweep
		}
	})
	endPhase(phaseEstimate, phaseStart)
	return results
}

// claim runs fn(i) for every i in [0, n) on up to workers goroutines,
// each claiming the next index from a shared counter as it finishes the
// last, so the tail stays balanced whatever the items cost.
func claim(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

type machineCtx struct {
	m           *machine.Machine
	defaults    mpi.Algorithms
	fingerprint string // "" when no cache is attached
}

// runOne estimates one scenario (its cache lookup already missed). Only
// the scenario's own operation deviates from the vendor algorithm
// table, so the in-band synchronization barrier of the measurement
// procedure is the same across variants of another operation.
func runOne(sc Scenario, mc *machineCtx, backend estimate.Backend) Result {
	algs := mc.defaults
	if sc.Algorithm != DefaultAlgorithm && sc.Algorithm != "" {
		algs = algs.With(sc.Op, sc.Algorithm)
	}
	// The hardware barrier is selected by name like any registry
	// algorithm but only the mpi layer can bind it.
	if sc.Op == machine.OpBarrier && sc.Algorithm == coll.AlgHardware && !mc.m.HardwareBarrier() {
		panic(fmt.Sprintf("sweep: %s has no hardware barrier", sc.Machine))
	}
	est, err := backend.Estimate(context.Background(), mc.m, sc.Op, algs, sc.P, sc.M, sc.Config)
	if err != nil {
		// Background never cancels; a sweep backend that errors anyway
		// (fault injection) is a harness misuse, not a sweep condition.
		panic(fmt.Sprintf("sweep: %s: %v", sc.ID(), err))
	}
	return Result{Scenario: sc, Sample: est.Sample, Backend: est.Backend}
}
