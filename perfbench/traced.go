package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/sweep"
)

// additivityTolerance bounds how far the grid-wire layer decomposition
// may miss the client-observed request time: transport residual, handler
// self time, the sequential stages, and the parallel estimate and bounds
// stages divided by the worker pool size must add up to the client span
// within this share.
const additivityTolerance = 0.15

// tracedPass is the per-layer run. Whatever workload it is named for, it
// measures every layer, so each traced run reports the full ledger:
// an instrumented cold preparation (sweep, estimate, fit), a grid-wire
// segment with spans around the client, the worker handler and the
// worker's own stage timings, a mixed-open segment with spans around the
// client, the front, each front sub-request and the workers, and the
// replay of every layer's public functions on the generated inputs.
// trace.overhead_ratio compares traced with untraced end to end on the
// named workload.
func tracedPass(b *bench, spansPath string) (*result, error) {
	res := &result{}
	log := &spanLog{}
	pr := &probes{reg: obs.NewRegistry()}
	pr.sweep = sweep.NewMetrics(pr.reg)

	cfg := methodology(b.seed)
	scns, err := defaultGrid(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	d, err := prepare(b.dir, cfg, scns, pr)
	if err != nil {
		return nil, err
	}
	prepTraced := time.Since(start)
	plain, _, err := startWorker(d, false, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	phase := func(name string) float64 {
		return float64(pr.reg.Histogram("sweep_phase_duration_ns", "", obs.Label{Key: "phase", Value: name}).Sum()) / 1e9
	}
	res.add("sweep.phase_cache_s", "s", phase("cache"))
	res.add("sweep.phase_calibrate_s", "s", phase("calibrate"))
	res.add("sweep.phase_estimate_s", "s", phase("estimate"))
	res.add("sweep.pair_build_ms", "ms", float64(pr.pair.Nanoseconds())/1e6/2)
	hits := pr.reg.Counter("estimate_memo_total", "", obs.Label{Key: "result", Value: "hit"}).Value()
	misses := pr.reg.Counter("estimate_memo_total", "", obs.Label{Key: "result", Value: "miss"}).Value()
	res.add("estimate.memo_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	res.note("estimate.memo_hit_ratio base: %d memo lookups", hits+misses)

	traced, warm, err := startWorker(d, true, spanHandler(log, "worker"))
	if err != nil {
		return nil, err
	}
	defer traced.close()
	res.add("estimate.precalibrate_s", "s", warm.Seconds())

	ref, err := newReference(d)
	if err != nil {
		return nil, err
	}
	grid := newGridInputs(b.rng)
	gridRatio, err := gridSegment(b, res, log, ref, grid, plain, traced)
	if err != nil {
		return nil, err
	}

	gen := newMixedGen(b.rng)
	mixedRatio, mixed, regs, err := mixedSegment(b, res, log, ref, d, gen)
	if err != nil {
		return nil, err
	}
	stageMetrics(res, append(regs, traced.obs))

	if err := layerReplays(res, log, d, plain.srv, grid, gen, mixed); err != nil {
		return nil, err
	}

	ratio := gridRatio
	switch b.workload {
	case "mixed-open":
		ratio = mixedRatio
	case "cold-validate":
		t0 := time.Now()
		if _, err := prepare(b.dir, d.cfg, d.scns, nil); err != nil {
			return nil, err
		}
		ratio = prepTraced.Seconds() / time.Since(t0).Seconds()
	}
	res.add("trace.overhead_ratio", "ratio", ratio)
	res.note("trace.overhead_ratio: traced ÷ untraced end to end on %s", b.workload)

	traces := log.byTrace()
	if err := log.write(spansPath, traces); err != nil {
		return nil, err
	}
	res.note("spans: %d traces written to %s", len(traces), spansPath)
	return res, nil
}

// gridSegment alternates untraced and traced closed-loop grid-wire
// segments, then decomposes the traced requests into layer self times.
// It returns the traced ÷ untraced mean request time.
func gridSegment(b *bench, res *result, log *spanLog, ref *reference, in gridInputs, plain, traced *worker) (float64, error) {
	seg := b.dur / 10
	var lat [2][]time.Duration
	n := 0
	for rep := 0; rep < 2; rep++ {
		for k, w := range []*worker{plain, traced} {
			client := newClient()
			var buf bytes.Buffer
			for i, frame := range in.frames { // warm the connection and the answer cache, check
				status, err := post(client, w.url+"/v1/estimate", wire.ContentType, frame, nil, &buf)
				if err != nil || status != http.StatusOK {
					return 0, fmt.Errorf("grid segment warm-up: status %d, %v", status, err)
				}
				if err := checkWire(res, ref, in.batches[i], buf.Bytes()); err != nil {
					return 0, err
				}
			}
			start := time.Now()
			for i := 0; time.Since(start) < seg; i++ {
				var h http.Header
				id := ""
				if k == 1 {
					n++
					id = "g" + strconv.Itoa(n)
					h = http.Header{serve.TraceIDHeader: {id}}
				}
				t0 := time.Now()
				status, err := post(client, w.url+"/v1/estimate", wire.ContentType, in.frames[i%len(in.frames)], h, &buf)
				t1 := time.Now()
				if err != nil || status != http.StatusOK {
					return 0, fmt.Errorf("grid segment: status %d, %v", status, err)
				}
				lat[k] = append(lat[k], t1.Sub(t0))
				if k == 1 {
					log.add(id, "client", t0, t1)
				}
			}
		}
	}
	res.attempted += len(lat[0]) + len(lat[1])
	for _, rec := range traced.srv.Traces.Records() {
		if len(rec.TraceID) > 1 && rec.TraceID[0] == 'g' {
			log.addStages(rec)
		}
	}

	traces := log.byTrace()
	byID := map[string]obs.TraceRecord{}
	for _, rec := range traced.srv.Traces.Records() {
		byID[rec.TraceID] = rec
	}
	var client, transport, handlerSelf, seqStages, fanout, parallel float64
	reqs := 0
	workers := float64(min(runtime.GOMAXPROCS(0), gridBatch))
	for i := 1; i <= n; i++ {
		id := "g" + strconv.Itoa(i)
		ss, rec := traces[id], byID[id]
		var c, w span
		for _, s := range ss {
			switch s.Name {
			case "client":
				c = s
			case "worker":
				w = s
			}
		}
		if c.ID == 0 || w.ID == 0 || rec.TraceID == "" {
			continue
		}
		reqs++
		seq := float64(rec.Stages["decode"] + rec.Stages["resolve"] + rec.Stages["calibrate"] + rec.Stages["encode"])
		client += float64(c.dur())
		transport += float64(selfTime(c, ss))
		handlerSelf += float64(w.dur()) - float64(rec.DurationNS)
		seqStages += seq
		fanout += float64(rec.DurationNS) - seq
		parallel += float64(rec.Stages["estimate"]+rec.Stages["bounds"]) / workers
	}
	if reqs == 0 {
		return 0, fmt.Errorf("grid segment: no traced request joined its worker record")
	}
	perReq := func(ns float64) float64 { return ns / float64(reqs) / 1e3 }
	res.add("serve.handler_us_per_req", "us", perReq(client-transport))
	res.add("serve.transport_us_per_req", "us", perReq(transport))
	res.add("serve.fanout_us_per_req", "us", perReq(fanout))
	sum := transport + handlerSelf + seqStages + fanout
	miss := math.Abs(client-sum) / client
	verdict := "within"
	if miss > additivityTolerance {
		verdict = "OUTSIDE"
	}
	res.note("grid-wire layers over %d traced requests, µs per request: client %.1f; transport residual %.1f + worker handler self %.1f + decode/resolve/calibrate/encode %.1f + scenario fan-out %.1f (of which estimate+bounds charged %.1f per worker) = %.1f",
		reqs, perReq(client), perReq(transport), perReq(handlerSelf), perReq(seqStages), perReq(fanout), perReq(parallel), perReq(sum))
	res.note("grid-wire additivity: the layer self times miss the client span by %.2f%%, %s the %.0f%% tolerance; the residual (client minus the worker's layers) is the net/http and loopback cost",
		100*miss, verdict, 100*additivityTolerance)
	return mean(durs(lat[1])) / mean(durs(lat[0])), nil
}

func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// mixedSegment runs mixed-open traffic at the nominal rate through a
// traced fleet (and, on the mixed-open traced run, an untraced one for
// the overhead ratio), then derives the front, gate, cache and load
// generator metrics. It returns the overhead ratio and the requests it
// generated.
func mixedSegment(b *bench, res *result, log *spanLog, ref *reference, d *deployment, gen *mixedGen) (float64, []openRequest, []*obs.Registry, error) {
	seg := b.dur * 3 / 10
	sched := schedule(b.rng, ladderRates[0], seg)
	reqs := make([]openRequest, len(sched))
	for i := range reqs {
		reqs[i] = gen.next()
	}

	ratio := 0.0
	if b.workload == "mixed-open" {
		first, _, err := startWorker(d, false, nil)
		if err != nil {
			return 0, nil, nil, err
		}
		fl, err := startFleet(d, first, false, nil, nil)
		if err != nil {
			return 0, nil, nil, err
		}
		_, out := openLoop(fl.front.url+"/v1/estimate", reqs, sched, nil)
		fl.close()
		ratio = summarize(ladderRates[0], reqs, out).p50
	}

	wrap := func(name string) func(http.Handler) http.Handler {
		if name == "front" {
			return spanHandler(log, "front")
		}
		return spanHandler(log, "worker")
	}
	first, _, err := startWorker(d, true, wrap("w0"))
	if err != nil {
		return 0, nil, nil, err
	}
	client := &http.Client{Transport: &spanTransport{log: log, inner: &http.Transport{MaxIdleConnsPerHost: 8}}}
	fl, err := startFleet(d, first, true, wrap, client)
	if err != nil {
		return 0, nil, nil, err
	}
	defer fl.close()
	base, out := openLoop(fl.front.url+"/v1/estimate", reqs, sched, func(i int) http.Header {
		return http.Header{serve.TraceIDHeader: {"m" + strconv.Itoa(i)}}
	})
	st := summarize(ladderRates[0], reqs, out)
	res.attempted += len(out)
	if ratio > 0 {
		ratio = st.p50 / ratio
	}
	for i, s := range out {
		log.add("m"+strconv.Itoa(i), "client", base.Add(s.start), base.Add(s.done))
		if s.status != http.StatusOK {
			return 0, nil, nil, fmt.Errorf("mixed segment request %d: status %d", i, s.status)
		}
		if err := checkJSON(res, ref, reqs[i], s.body); err != nil {
			return 0, nil, nil, err
		}
	}
	var gateWait []float64
	for _, w := range fl.workers {
		for _, rec := range w.srv.Traces.Records() {
			log.addStages(rec)
		}
	}
	traces := log.byTrace()
	var frontSelf float64
	fronts, subs := 0, 0
	for i := range out {
		ss := traces["m"+strconv.Itoa(i)]
		for _, s := range ss {
			switch s.Name {
			case "front":
				fronts++
				frontSelf += float64(selfTime(s, ss))
			case "front.subrequest":
				subs++
			case "worker":
				// The worker record starts once the gate admitted the
				// request; the wait is the gap from the handler span.
				for _, c := range ss {
					if c.Parent == s.ID && c.Name == "serve.decode" {
						gateWait = append(gateWait, float64(c.Start-s.Start)/1e3)
					}
				}
			}
		}
	}
	if fronts == 0 {
		return 0, nil, nil, fmt.Errorf("mixed segment: no front spans")
	}
	res.add("front.self_us_per_req", "us", frontSelf/float64(fronts)/1e3)
	res.add("front.subreqs_per_req", "count", float64(subs)/float64(fronts))
	res.add("serve.gate_wait_us_p99", "us", quantile(gateWait, 0.99))

	count := func(name, key, value string) float64 {
		total := 0.0
		for _, w := range fl.workers {
			total += float64(w.obs.Counter(name, "", obs.Label{Key: key, Value: value}).Value())
		}
		return total
	}
	hit, miss, bypass := count("serve_answer_cache_total", "result", "hit"), count("serve_answer_cache_total", "result", "miss"), count("serve_answer_cache_total", "result", "bypass")
	closed, fallback := count("serve_scenarios_total", "mode", "closed_form"), count("serve_scenarios_total", "mode", "fallback")
	bounds := 0.0
	for _, w := range fl.workers {
		bounds += float64(w.obs.Counter("serve_bounds_attached_total", "").Value())
	}
	served := closed + fallback
	res.add("serve.cache_hit_ratio", "ratio", hit/(hit+miss+bypass))
	res.add("serve.fallback_ratio", "ratio", fallback/served)
	res.add("serve.bounds_ratio", "ratio", bounds/served)
	res.add("serve.ratio_base_scenarios", "count", served)
	shed := count("serve_shed_total", "reason", "queue_full") + count("serve_shed_total", "reason", "timeout")
	res.note("mixed segment: %d requests, %.0f scenarios served; shed %.0f, front retries %d", len(out), served, shed, fl.metrics.Retries())
	res.add("loadgen.late_p99_ms", "ms", st.lateP99)
	res.add("loadgen.backlog_max", "count", float64(st.backlogMax))
	var regs []*obs.Registry
	for _, w := range fl.workers {
		regs = append(regs, w.obs)
	}
	return ratio, reqs, regs, nil
}

// stageMetrics reads the workers' existing serve_stage_duration_ns
// histograms: per-scenario stage costs over every scenario they served
// (grid-wire's answer-cache hits and mixed-open's misses and
// fallbacks), and the batch calibration stage per request.
func stageMetrics(res *result, regs []*obs.Registry) {
	var scns, reqs float64
	sums := map[string]float64{}
	for _, reg := range regs {
		for _, mode := range []string{"closed_form", "fallback"} {
			scns += float64(reg.Counter("serve_scenarios_total", "", obs.Label{Key: "mode", Value: mode}).Value())
		}
		reqs += float64(reg.Counter("serve_requests_total", "", obs.Label{Key: "outcome", Value: "ok"}).Value())
		for _, st := range []string{"decode", "resolve", "calibrate", "estimate", "bounds", "encode"} {
			sums[st] += float64(reg.Histogram("serve_stage_duration_ns", "", obs.Label{Key: "stage", Value: st}).Sum())
		}
	}
	for _, st := range []string{"decode", "resolve", "estimate", "bounds", "encode"} {
		res.add("serve.stage."+st+"_ns_per_scn", "ns", sums[st]/scns)
	}
	res.add("serve.stage.calibrate_us_per_req", "us", sums["calibrate"]/reqs/1e3)
	res.note("serve.stage.* base: %.0f scenarios in %.0f requests", scns, reqs)
}
