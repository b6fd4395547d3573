package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/serve"
	"repro/internal/serve/front"
	"repro/internal/serve/wire"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// sink keeps replayed calls whose results are otherwise unused from
// being optimised away.
var sink int

// cost is one replayed call site's measured cost per unit of work.
type cost struct {
	ns, allocs, bytes float64
}

// replay times fn over inputs 0..n-1, repeating whole passes for at
// least 50 ms, and divides the time and allocations by units per pass.
// Nothing else runs while it measures, so the allocation counters
// belong to fn. The whole replay is recorded in l as one span of trace
// "replay".
func (l *spanLog) replay(name string, n int, units float64, fn func(i int)) cost {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < 50*time.Millisecond {
		for i := 0; i < n; i++ {
			fn(i)
		}
		passes++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	l.add("replay", "replay."+name, start, start.Add(el))
	total := units * float64(passes)
	return cost{
		ns:     float64(el.Nanoseconds()) / total,
		allocs: float64(after.Mallocs-before.Mallocs) / total,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / total,
	}
}

// resolvedScenario is a scenario with its names bound, the input of the
// estimate-layer replays.
type resolvedScenario struct {
	mach *machine.Machine
	op   machine.Op
	alg  string
	algs mpi.Algorithms
	p, m int
}

func resolveAll(scns []serve.Scenario) ([]resolvedScenario, error) {
	out := make([]resolvedScenario, len(scns))
	for i, sc := range scns {
		mach, err := estimate.ResolveMachine(sc.Machine)
		if err != nil {
			return nil, err
		}
		op, err := estimate.ResolveOp(sc.Op)
		if err != nil {
			return nil, err
		}
		alg, err := estimate.ResolveAlgorithm(mach, op, sc.Algorithm)
		if err != nil {
			return nil, err
		}
		algs := mpi.DefaultAlgorithms(mach)
		if alg != sweep.DefaultAlgorithm {
			algs = algs.With(op, alg)
		}
		out[i] = resolvedScenario{mach, op, alg, algs, sc.P, sc.M}
	}
	return out, nil
}

// layerReplays runs one timed call site per layer public function over
// the run's generated inputs and adds the per-layer metrics they give.
func layerReplays(res *result, log *spanLog, d *deployment, srv *serve.Server, grid gridInputs, gen *mixedGen, mixed []openRequest) error {
	ctx := context.Background()

	// Wire codec, on grid-wire's frames and the responses to them.
	var req wire.Request
	c := log.replay("wire.Request.Decode", len(grid.frames), float64(len(grid.frames)*gridBatch), func(i int) {
		if err := req.Decode(grid.frames[i]); err != nil {
			panic(err)
		}
	})
	res.add("wire.decode_ns_per_scn", "ns", c.ns)
	h := srv.Handler()
	var resps []wire.Response
	reqBytes, respBytes := 0, 0
	for _, frame := range grid.frames {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(frame))
		r.Header.Set("Content-Type", wire.ContentType)
		h.ServeHTTP(rec, r)
		var resp wire.Response
		if err := resp.Decode(rec.Body.Bytes()); err != nil {
			return err
		}
		resps = append(resps, resp)
		reqBytes += len(frame)
		respBytes += rec.Body.Len()
	}
	buf := make([]byte, 0, 64<<10)
	c = log.replay("wire.Response.Append", len(resps), float64(len(resps)*gridBatch), func(i int) { buf = resps[i].Append(buf[:0]) })
	res.add("wire.encode_ns_per_scn", "ns", c.ns)
	res.add("wire.req_bytes_per_scn", "B", float64(reqBytes)/float64(len(grid.frames)*gridBatch))
	res.add("wire.resp_bytes_per_scn", "B", float64(respBytes)/float64(len(grid.frames)*gridBatch))

	// The whole worker handler in process, no socket: allocations per
	// scenario of one batched binary request.
	c = log.replay("serve.Server.Handler", len(grid.frames), float64(len(grid.frames)*gridBatch), func(i int) {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(grid.frames[i]))
		r.Header.Set("Content-Type", wire.ContentType)
		h.ServeHTTP(rec, r)
	})
	res.add("serve.handler_inproc_ns_per_scn", "ns", c.ns)
	res.add("serve.allocs_per_scn", "count", c.allocs)
	res.add("serve.alloc_bytes_per_scn", "B", c.bytes)

	// JSON envelope decode, on mixed-open's bodies.
	nscn := 0
	for _, r := range mixed {
		nscn += len(r.scns)
	}
	c = log.replay("serve.ParseJSONRequest", len(mixed), float64(nscn), func(i int) {
		if _, _, err := serve.ParseJSONRequest(mixed[i].body); err != nil {
			panic(err)
		}
	})
	res.add("serve.json_decode_ns_per_scn", "ns", c.ns)

	// Sharding decision, on mixed-open's scenarios.
	var flat []serve.Scenario
	for _, r := range mixed {
		flat = append(flat, r.scns...)
	}
	c = log.replay("front.Owner", len(flat), float64(len(flat)), func(i int) {
		sc := flat[i]
		sink += front.Owner(sc.Machine, sc.Op, sc.Algorithm, sc.P, sc.M, 2)
	})
	res.add("front.owner_ns_per_scn", "ns", c.ns)

	// Estimate layer, on grid-wire's scenarios.
	var pool []serve.Scenario
	for _, batch := range grid.batches[:4] {
		pool = append(pool, batch...)
	}
	c = log.replay("estimate.Resolve", len(pool), float64(len(pool)), func(i int) {
		sc := pool[i]
		mach, _ := estimate.ResolveMachine(sc.Machine)
		op, _ := estimate.ResolveOp(sc.Op)
		if _, err := estimate.ResolveAlgorithm(mach, op, sc.Algorithm); err != nil {
			panic(err)
		}
	})
	res.add("estimate.resolve_ns_per_scn", "ns", c.ns)
	rs, err := resolveAll(pool)
	if err != nil {
		return err
	}
	ref, err := newReference(d)
	if err != nil {
		return err
	}
	entry, err := ref.reg.Get(defaultRegistry)
	if err != nil {
		return err
	}
	c = log.replay("estimate.Entry.Covers", len(rs), float64(len(rs)), func(i int) {
		if in, _ := entry.Covers(rs[i].mach, rs[i].op, rs[i].p, rs[i].m); in {
			sink++
		}
	})
	res.add("estimate.covers_ns_per_scn", "ns", c.ns)
	for _, name := range []string{"paper-table3", defaultRegistry, "refit-piecewise"} {
		e, err := ref.reg.Get(name)
		if err != nil {
			return err
		}
		in := rs
		if an, ok := e.Backend.(*estimate.Analytic); ok {
			in = nil
			for _, r := range rs {
				if an.Covers(r.mach.Name(), r.op) {
					in = append(in, r)
				}
			}
		} else {
			e.Backend.(*estimate.Calibrated).Precalibrate(allTriples(), 0)
		}
		c = log.replay("estimate.Backend.Estimate."+name, len(in), float64(len(in)), func(i int) {
			r := in[i]
			if _, err := e.Backend.Estimate(ctx, r.mach, r.op, r.algs, r.p, r.m, d.cfg); err != nil {
				panic(err)
			}
		})
		res.add("estimate.closed_form_ns_per_scn."+name, "ns", c.ns)
	}
	c = log.replay("estimate.ErrorTable.Bound", len(rs), float64(len(rs)), func(i int) {
		if _, ok := entry.Bounds.Bound(rs[i].mach.Name(), rs[i].op, rs[i].m); ok {
			sink++
		}
	})
	res.add("estimate.bound_lookup_ns", "ns", c.ns)

	// Sim fallback: mixed-open's out-of-envelope keys, simulated cold.
	fb, err := resolveAll(gen.fallbacks)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, r := range fb {
		if _, err := (estimate.Sim{}).Estimate(ctx, r.mach, r.op, r.algs, r.p, r.m, d.cfg); err != nil {
			return err
		}
	}
	res.add("estimate.sim_fallback_ms_per_scn", "ms", float64(time.Since(start).Nanoseconds())/1e6/float64(len(fb)))

	// Fitting alone: Precalibrate over the deployment's warm memo, so
	// every measurement is a memo hit.
	distinct := map[[3]string]bool{}
	for _, t := range allTriples() {
		alg := t.Alg
		if alg == sweep.DefaultAlgorithm {
			alg = mpi.DefaultAlgorithms(t.Machine).Get(t.Op)
		}
		distinct[[3]string{t.Machine.Name(), string(t.Op), alg}] = true
	}
	for _, v := range []struct {
		name string
		fc   estimate.FitConfig
	}{{"fit.ms_per_triple", estimate.FitConfig{}}, {"fit.piecewise_ms_per_triple", estimate.FitConfig{Piecewise: true}}} {
		cal := &estimate.Calibrated{Config: d.cfg, Sizes: estimate.DefaultCalibrationSizes, Fit: v.fc, Memo: d.memo}
		start := time.Now()
		cal.Precalibrate(allTriples(), 0)
		res.add(v.name, "ms", float64(time.Since(start).Nanoseconds())/1e6/float64(len(distinct)))
	}

	// Measurement and the kernel under it: 24 grid scenarios simulated
	// one at a time, no memo.
	var sample []resolvedScenario
	for i := 0; i < len(d.scns) && len(sample) < 24; i += len(d.scns) / 24 {
		sc := d.scns[i]
		one, err := resolveAll([]serve.Scenario{{Machine: sc.Machine, Op: string(sc.Op), Algorithm: sc.Algorithm, P: sc.P, M: sc.M}})
		if err != nil {
			return err
		}
		sample = append(sample, one[0])
	}
	ev0, wk0 := sim.KernelEvents(), sim.KernelWakeups()
	start = time.Now()
	for _, r := range sample {
		if _, err := measure.MeasureOpCtx(ctx, r.mach, r.op, r.p, r.m, d.cfg, r.algs); err != nil {
			return err
		}
	}
	el := time.Since(start)
	events, wakeups := sim.KernelEvents()-ev0, sim.KernelWakeups()-wk0
	res.add("measure.ms_per_scn", "ms", float64(el.Nanoseconds())/1e6/float64(len(sample)))
	res.add("sim.events_per_scn", "count", float64(events)/float64(len(sample)))
	res.add("sim.wakeups_per_scn", "count", float64(wakeups)/float64(len(sample)))
	res.add("sim.ns_per_event", "ns", float64(el.Nanoseconds())/float64(events))
	return nil
}
