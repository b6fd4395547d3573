package main

import (
	"bytes"
	"encoding/json"
	"math"
	mbits "math/bits"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/front"
)

// mixed-open's arrival process. The first ladder rate is the nominal
// one, well below the knee of two fronted workers on two cores; the top
// step is above it. The latency limit applies to p99 timed from the
// scheduled send, and a step whose generator ran late by more than
// lateShare of the limit is reported invalid rather than slow.
var ladderRates = []float64{250, 800, 1600, 3200}

const (
	latencySLO = 25 * time.Millisecond
	lateShare  = 0.1
	senders    = 2 // sending goroutines, one connection each (nproc)
)

// openRequest is one generated mixed-open request.
type openRequest struct {
	registry string
	scns     []serve.Scenario
	body     []byte
}

// mixedGen draws mixed-open traffic: small JSON envelopes over a
// Zipf-weighted pool of off-grid keys, so repeats hit the answer cache,
// with about 5% of scenarios outside the calibrated envelope at cheap
// simulation points (p ≤ 4).
type mixedGen struct {
	rng                    *rand.Rand
	pool, paper, fallbacks []serve.Scenario
	poolZ, paperZ, sizeZ   *rand.Zipf
}

func newMixedGen(rng *rand.Rand) *mixedGen {
	g := &mixedGen{rng: rng}
	triples := envelopeTriples()
	paperSet := estimate.PaperAnalytic()
	offGrid := func() int {
		for {
			m := logUniform(rng, 5, 65000)
			if m&(m-1) != 0 || mbits.TrailingZeros(uint(m))%2 == 1 { // not a power of 4, a calibration length
				return m
			}
		}
	}
	for len(g.pool) < 2048 {
		g.pool = append(g.pool, scenarioAt(triples[rng.Intn(len(triples))], 9+rng.Intn(23), offGrid()))
	}
	for len(g.paper) < 512 {
		t := triples[rng.Intn(len(triples))]
		if t.alg != "default" || !paperSet.Covers(t.mach, machine.Op(t.op)) {
			continue
		}
		g.paper = append(g.paper, scenarioAt(t, 9+rng.Intn(23), offGrid()))
	}
	for len(g.fallbacks) < 24 {
		g.fallbacks = append(g.fallbacks, scenarioAt(triples[rng.Intn(len(triples))], 2+rng.Intn(3), logUniform(rng, 4, 16384)))
	}
	g.poolZ = rand.NewZipf(rng, 1.1, 2, uint64(len(g.pool)-1))
	g.paperZ = rand.NewZipf(rng, 1.1, 2, uint64(len(g.paper)-1))
	g.sizeZ = rand.NewZipf(rng, 1.4, 1, 31)
	return g
}

func (g *mixedGen) next() openRequest {
	var r openRequest
	switch u := g.rng.Float64(); {
	case u < 0.7:
		r.registry = defaultRegistry
	case u < 0.9:
		r.registry = "refit-piecewise"
	default:
		r.registry = "paper-table3"
	}
	n := 1 + int(g.sizeZ.Uint64())
	for i := 0; i < n; i++ {
		switch {
		case r.registry == "paper-table3":
			r.scns = append(r.scns, g.paper[g.paperZ.Uint64()])
		case g.rng.Float64() < 0.05:
			r.scns = append(r.scns, g.fallbacks[g.rng.Intn(len(g.fallbacks))])
		default:
			r.scns = append(r.scns, g.pool[g.poolZ.Uint64()])
		}
	}
	r.body, _ = json.Marshal(struct {
		Registry  string           `json:"registry"`
		Scenarios []serve.Scenario `json:"scenarios"`
	}{r.registry, r.scns})
	return r
}

// schedule draws Poisson arrival offsets at rate per second for dur.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// sent is one open-loop request's timeline, relative to the step start.
type sent struct {
	due, start, done time.Duration
	lateGen          time.Duration // the generator's own lateness
	status           int
	body             []byte
}

// openLoop sends reqs at their scheduled offsets from base, the time it
// returns, from `senders` goroutines, one connection each. A request is timed from when it was
// due, so a stall charges every request queued behind it; the
// generator's own lateness is the part of the delay not spent waiting
// for a free connection.
func openLoop(url string, reqs []openRequest, sched []time.Duration, header func(i int) http.Header) (time.Time, []sent) {
	out := make([]sent, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	base := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			var buf bytes.Buffer
			free := time.Duration(0)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				if d := sched[i] - time.Since(base); d > 0 {
					time.Sleep(d)
				}
				st := time.Since(base)
				var h http.Header
				if header != nil {
					h = header(i)
				}
				status, err := post(client, url, "application/json", reqs[i].body, h, &buf)
				done := time.Since(base)
				if err != nil {
					status = 0
				}
				out[i] = sent{due: sched[i], start: st, done: done, lateGen: st - max(sched[i], free),
					status: status, body: bytes.Clone(buf.Bytes())}
				free = done
			}
		}()
	}
	wg.Wait()
	return base, out
}

// stepStats summarizes one open-loop step.
type stepStats struct {
	rate                 float64
	n, failed            int
	scenarios            int
	p50, p99, lateP99    float64 // ms
	backlogMax           int
	growing, valid, pass bool
	elapsed              time.Duration
}

func summarize(rate float64, reqs []openRequest, out []sent) stepStats {
	st := stepStats{rate: rate, n: len(out)}
	lat := make([]float64, len(out))
	late := make([]float64, len(out))
	type ev struct {
		at time.Duration
		d  int
	}
	evs := make([]ev, 0, 2*len(out))
	for i, s := range out {
		lat[i] = float64(s.done-s.due) / 1e6
		late[i] = float64(s.lateGen) / 1e6
		if s.status != http.StatusOK {
			st.failed++
		} else {
			st.scenarios += len(reqs[i].scns)
		}
		evs = append(evs, ev{s.due, 1}, ev{s.done, -1})
		st.elapsed = max(st.elapsed, s.done)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at || evs[i].at == evs[j].at && evs[i].d < evs[j].d })
	cur := 0
	for _, e := range evs {
		cur += e.d
		st.backlogMax = max(st.backlogMax, cur)
	}
	// The backlog grows when requests of the last quarter waited, on
	// average, more than half the limit for a free connection.
	var wait float64
	q := out[len(out)*3/4:]
	for _, s := range q {
		wait += float64(s.start - s.due)
	}
	st.growing = len(q) > 0 && wait/float64(len(q)) > float64(latencySLO)/2
	// A failed or refused request misses the limit.
	for i, s := range out {
		if s.status != http.StatusOK {
			lat[i] = math.Inf(1)
		}
	}
	st.p50, st.p99, st.lateP99 = quantile(lat, 0.5), quantile(lat, 0.99), quantile(late, 0.99)
	st.valid = st.lateP99 <= lateShare*float64(latencySLO)/1e6
	st.pass = st.valid && !st.growing && st.p99 <= float64(latencySLO)/1e6
	return st
}

// checkJSON compares one served JSON response with the reference,
// answer by answer, recording every mismatch in res. The error is the
// reference's own failure.
func checkJSON(res *result, ref *reference, req openRequest, body []byte) error {
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		res.mismatch("undecodable response: %v", err)
		return nil
	}
	if resp.Registry != req.registry || len(resp.Answers) != len(req.scns) {
		res.mismatch("response from %q with %d answers for %q with %d scenarios",
			resp.Registry, len(resp.Answers), req.registry, len(req.scns))
		return nil
	}
	for i, sc := range req.scns {
		want, err := ref.answer(req.registry, sc)
		if err != nil {
			return err
		}
		if err := sameAnswer(resp.Answers[i], want); err != nil {
			res.mismatch("%s answer %d: %v", req.registry, i, err)
		}
	}
	return nil
}

// fleet is mixed-open's serving side: two workers behind a front, plus
// a direct worker over the same cache that fronted answers must equal.
type fleet struct {
	workers []*worker
	direct  *worker
	front   *listener
	metrics *front.Metrics
}

// startFleet starts the fleet around first; wrap, when non-nil, gives
// the handler wrapper of each named member ("w1", "front"). On error
// everything it started, first included, is closed.
func startFleet(d *deployment, first *worker, traced bool, wrap func(name string) func(http.Handler) http.Handler, client *http.Client) (*fleet, error) {
	f := &fleet{workers: []*worker{first}}
	if wrap == nil {
		wrap = func(string) func(http.Handler) http.Handler { return nil }
	}
	second, _, err := startWorker(d, traced, wrap("w1"))
	if err != nil {
		f.close()
		return nil, err
	}
	f.workers = append(f.workers, second)
	if f.direct, _, err = startWorker(d, false, nil); err != nil {
		f.close()
		return nil, err
	}
	ring := []front.Worker{{Name: "w0", URL: first.url}, {Name: "w1", URL: second.url}}
	f.metrics = front.NewMetrics(obs.NewRegistry(), front.WorkerNames(ring))
	fr, err := front.New(front.Config{Workers: ring, Metrics: f.metrics, Client: client})
	if err != nil {
		f.close()
		return nil, err
	}
	h := fr.Handler()
	if w := wrap("front"); w != nil {
		h = w(h)
	}
	if f.front, err = listen(h); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	if f.front != nil {
		f.front.close()
	}
	for _, w := range append(f.workers, f.direct) {
		if w != nil {
			w.close()
		}
	}
}

// mixedOpen is the arrival-driven latency workload: seeded Poisson
// arrivals of small JSON requests through a sharding front over two
// workers, at the nominal rate and then up a ladder of rates.
func mixedOpen(b *bench) (*result, error) {
	res := &result{}
	d, w0, err := b.setUps(res)
	if err != nil {
		return nil, err
	}
	fl, err := startFleet(d, w0, false, nil, nil)
	if err != nil {
		return nil, err
	}
	defer fl.close()
	addValidation(res, d)
	ref, err := newReference(d)
	if err != nil {
		return nil, err
	}
	gen := newMixedGen(b.rng)
	nominalDur := b.dur * 7 / 10
	stepDur := (b.dur - nominalDur) / time.Duration(len(ladderRates)-1)

	maxRPS := 0.0
	var nominal stepStats
	for k, rate := range ladderRates {
		dur := stepDur
		if k == 0 {
			dur = nominalDur
		}
		sched := schedule(b.rng, rate, dur)
		reqs := make([]openRequest, len(sched))
		for i := range reqs {
			reqs[i] = gen.next()
		}
		_, out := openLoop(fl.front.url+"/v1/estimate", reqs, sched, nil)
		st := summarize(rate, reqs, out)
		if k == 0 {
			nominal = st
		}
		if st.pass {
			maxRPS = rate
		}
		res.note("mixed-open step %5.0f req/s: %5d requests, %d failed, p50 %.3f ms, p99 %.3f ms, generator late p99 %.3f ms, backlog max %d, growing %v, valid %v, within limit %v",
			rate, st.n, st.failed, st.p50, st.p99, st.lateP99, st.backlogMax, st.growing, st.valid, st.pass)
		if err := checkStep(res, ref, reqs, out, k == 0, fl.direct.url); err != nil {
			return nil, err
		}
		if k == 0 {
			res.attempted, res.failed = st.n, st.failed+res.wrong
		}
	}
	res.note("mixed-open: latency limit p99 ≤ %v from the scheduled send; max_rps_within_slo %.0f req/s", latencySLO, maxRPS)
	res.note("mixed-open: nominal %.0f req/s, %d requests, p99 has %d samples beyond it; error_ratio %d/%d",
		ladderRates[0], nominal.n, nominal.n/100, res.failed, res.attempted)
	if !nominal.valid {
		res.note("mixed-open: INVALID nominal step: generator lateness p99 %.3f ms exceeds %.0f%% of the limit; its latencies measure the generator as much as the service",
			nominal.lateP99, 100*lateShare)
	}
	res.add("scenarios_per_s", "1/s", float64(nominal.scenarios)/nominal.elapsed.Seconds())
	res.add("lat_p50_ms", "ms", nominal.p50)
	res.add("lat_p99_ms", "ms", nominal.p99)
	res.add("rss_peak_mb", "MiB", peakRSSMB())
	return res, nil
}

// checkStep checks every 200 answer of a step against the reference;
// on the nominal step every fronted response must also equal, byte for
// byte, what the direct worker answers for the same request.
func checkStep(res *result, ref *reference, reqs []openRequest, out []sent, direct bool, directURL string) error {
	client := newClient()
	var buf bytes.Buffer
	for i, s := range out {
		if s.status != http.StatusOK {
			continue
		}
		if err := checkJSON(res, ref, reqs[i], s.body); err != nil {
			return err
		}
		if !direct {
			continue
		}
		status, err := post(client, directURL+"/v1/estimate", "application/json", reqs[i].body, nil, &buf)
		if err != nil {
			return err
		}
		if status != http.StatusOK || !bytes.Equal(buf.Bytes(), s.body) {
			res.mismatch("fronted response %d differs from the direct worker's (status %d)", i, status)
		}
	}
	return nil
}
