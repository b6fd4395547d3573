package main

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/sweep"
)

// reference computes, in process and independently of any server, the
// answer a correctly working service gives: entry.Backend.Estimate for
// closed-form answers with the entry's validated bound attached, and
// estimate.Sim under the server's methodology for fallbacks. Answers
// are memoized per (registry, scenario).
type reference struct {
	d    *deployment
	reg  *estimate.Registry
	sim  estimate.Sim
	mu   sync.Mutex
	memo map[refKey]serve.Answer
}

type refKey struct {
	registry string
	sc       serve.Scenario
}

// newReference loads the registry from the deployment's cache the way
// a worker does, but shares nothing with any worker.
func newReference(d *deployment) (*reference, error) {
	cache, err := sweep.OpenCache(d.dir)
	if err != nil {
		return nil, err
	}
	memo := estimate.NewSampleMemo()
	reg := estimate.StandardRegistry(estimate.RegistryConfig{Store: cache, Memo: memo, Config: d.cfg})
	sweep.AttachBounds(reg, cache)
	return &reference{d: d, reg: reg, sim: estimate.Sim{Memo: memo}, memo: map[refKey]serve.Answer{}}, nil
}

// answer returns the reference answer for one scenario under one
// registry entry ("" means the default).
func (r *reference) answer(registry string, sc serve.Scenario) (serve.Answer, error) {
	if registry == "" {
		registry = defaultRegistry
	}
	k := refKey{registry, sc}
	r.mu.Lock()
	a, ok := r.memo[k]
	r.mu.Unlock()
	if ok {
		return a, nil
	}
	a, err := r.compute(registry, sc)
	if err != nil {
		return serve.Answer{}, err
	}
	r.mu.Lock()
	r.memo[k] = a
	r.mu.Unlock()
	return a, nil
}

func (r *reference) compute(registry string, sc serve.Scenario) (serve.Answer, error) {
	entry, err := r.reg.Get(registry)
	if err != nil {
		return serve.Answer{}, err
	}
	mach, err := estimate.ResolveMachine(sc.Machine)
	if err != nil {
		return serve.Answer{}, err
	}
	op, err := estimate.ResolveOp(sc.Op)
	if err != nil {
		return serve.Answer{}, err
	}
	alg, err := estimate.ResolveAlgorithm(mach, op, sc.Algorithm)
	if err != nil {
		return serve.Answer{}, err
	}
	algs := mpi.DefaultAlgorithms(mach)
	if alg != sweep.DefaultAlgorithm {
		algs = algs.With(op, alg)
	}
	p, m := sc.P, sc.M
	if op == machine.OpBarrier {
		m = 0
	}
	a := serve.Answer{Scenario: serve.Scenario{Machine: mach.Name(), Op: string(op), Algorithm: alg, P: p, M: m}}
	fallback := false
	if an, ok := entry.Backend.(*estimate.Analytic); ok {
		fallback = !an.Covers(mach.Name(), op) ||
			(alg != sweep.DefaultAlgorithm && alg != mpi.DefaultAlgorithms(mach).Get(op))
	}
	if in, _ := entry.Covers(mach, op, p, m); !in {
		fallback = true
	}
	if fallback {
		est, err := r.sim.Estimate(context.Background(), mach, op, algs, p, m, r.d.cfg)
		if err != nil {
			return serve.Answer{}, err
		}
		a.Micros, a.Backend, a.Fallback = est.Sample.Micros, est.Backend, true
		return a, nil
	}
	est, err := entry.Backend.Estimate(context.Background(), mach, op, algs, p, m, r.d.cfg)
	if err != nil {
		return serve.Answer{}, err
	}
	a.Micros, a.Backend = est.Sample.Micros, est.Backend
	a.ExpectedError = bound(entry, mach, op, alg, m)
	return a, nil
}

// bound is the expected-error annotation the service promises on a
// closed-form answer: the cell of the entry's validated error table
// nearest m, confined to the answering segment for piecewise fits.
func bound(entry *estimate.Entry, mach *machine.Machine, op machine.Op, alg string, m int) *serve.Bound {
	if entry.Bounds == nil {
		return nil
	}
	if cal, ok := entry.Backend.(*estimate.Calibrated); ok && cal.Fit.Piecewise {
		if seg, ok := cal.Expression(mach, op, alg).SegmentFor(m); ok {
			cell, ok := entry.Bounds.BoundIn(mach.Name(), op, m, seg.MMin, seg.MMax)
			if !ok {
				return nil
			}
			b := &serve.Bound{RelMedian: cell.Median, RelMax: cell.Max, BasisM: cell.M, Points: cell.Points}
			if cell.M >= seg.MMin && cell.M <= seg.MMax {
				b.SegmentMMin, b.SegmentMMax = seg.MMin, seg.MMax
			}
			return b
		}
	}
	cell, ok := entry.Bounds.Bound(mach.Name(), op, m)
	if !ok {
		return nil
	}
	return &serve.Bound{RelMedian: cell.Median, RelMax: cell.Max, BasisM: cell.M, Points: cell.Points}
}

// sameAnswer compares a served JSON answer with its reference: exact
// float64 equality on the time and the bound, identical provenance and
// fallback flag.
func sameAnswer(got, want serve.Answer) error {
	if got.Scenario != want.Scenario {
		return fmt.Errorf("echoed scenario %+v, want %+v", got.Scenario, want.Scenario)
	}
	if got.Micros != want.Micros || got.Backend != want.Backend || got.Fallback != want.Fallback {
		return fmt.Errorf("%+v: got %v µs from %s (fallback %v), want %v µs from %s (fallback %v)",
			want.Scenario, got.Micros, got.Backend, got.Fallback, want.Micros, want.Backend, want.Fallback)
	}
	if got.Fallback && got.FallbackReason == "" {
		return fmt.Errorf("%+v: fallback without a reason", want.Scenario)
	}
	switch {
	case (got.ExpectedError == nil) != (want.ExpectedError == nil):
		return fmt.Errorf("%+v: bound present %v, want %v", want.Scenario, got.ExpectedError != nil, want.ExpectedError != nil)
	case got.ExpectedError != nil && *got.ExpectedError != *want.ExpectedError:
		return fmt.Errorf("%+v: bound %+v, want %+v", want.Scenario, *got.ExpectedError, *want.ExpectedError)
	}
	return nil
}

// sameWireAnswer is sameAnswer for the binary codec, which echoes no
// scenario and implies the backend.
func sameWireAnswer(got wire.Answer, want serve.Answer) error {
	if got.Micros != want.Micros || got.Fallback != want.Fallback {
		return fmt.Errorf("%+v: got %v µs (fallback %v), want %v µs (fallback %v)",
			want.Scenario, got.Micros, got.Fallback, want.Micros, want.Fallback)
	}
	if got.HasBound != (want.ExpectedError != nil) {
		return fmt.Errorf("%+v: bound present %v, want %v", want.Scenario, got.HasBound, want.ExpectedError != nil)
	}
	if got.HasBound {
		w := want.ExpectedError
		gb := got.Bound
		if gb.RelMedian != w.RelMedian || gb.RelMax != w.RelMax || gb.BasisM != w.BasisM ||
			gb.Points != w.Points || gb.SegmentMMin != w.SegmentMMin || gb.SegmentMMax != w.SegmentMMax {
			return fmt.Errorf("%+v: bound %+v, want %+v", want.Scenario, gb, *w)
		}
	}
	return nil
}
