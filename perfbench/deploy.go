package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// defaultRegistry is the entry cmd/serve answers when a request names
// none.
const defaultRegistry = "refit-default"

// methodology is the measurement methodology of every simulation in a
// run: the shipped fast methodology with the run's seed.
func methodology(seed int64) measure.Config {
	cfg := measure.Fast()
	cfg.Seed = seed
	return cfg
}

// defaultGrid is cmd/sweep's default grid (every machine, op and
// variant, p ∈ {8, 32}, the paper's lengths) under cfg.
func defaultGrid(cfg measure.Config) ([]sweep.Scenario, error) {
	spec := sweep.Spec{
		Algorithms: sweep.AllAlgorithms(machine.Ops),
		Sizes:      estimate.DefaultCalibrationSizes,
		Config:     cfg,
	}
	return spec.Expand()
}

// validation is one `sweep -validate` pass: the candidate backend, the
// sim-vs-candidate pairs and the error table persisted for it.
type validation struct {
	candidate *estimate.Calibrated
	pairs     []sweep.Paired
	table     estimate.ErrorTable
}

// probes is the optional instrumentation of a traced preparation.
type probes struct {
	reg   *obs.Registry
	sweep *sweep.Metrics
	pair  time.Duration // sweep.Pair + BuildErrorTable, summed
}

// validate runs what `sweep -validate -cache <dir>` runs (with
// -piecewise when fc says so): a sim pass, a calibrated pass, the
// pairing and the persisted error table.
func validate(scns []sweep.Scenario, cfg measure.Config, fc estimate.FitConfig, cache *sweep.Cache, memo *estimate.SampleMemo, ref estimate.Backend, pr *probes) (validation, error) {
	cand := &estimate.Calibrated{
		Config: cfg, Sizes: estimate.DefaultCalibrationSizes, Fit: fc, Memo: memo, Store: cache,
	}
	var m *sweep.Metrics
	if pr != nil {
		m = pr.sweep
	}
	refResults := (&sweep.Runner{Cache: cache, Backend: ref, Metrics: m}).Run(scns)
	estResults := (&sweep.Runner{Cache: cache, Backend: cand, Metrics: m}).Run(scns)
	start := time.Now()
	pairs, err := sweep.Pair(refResults, estResults)
	if err != nil {
		return validation{}, err
	}
	table := sweep.BuildErrorTable(cand, pairs)
	if pr != nil {
		pr.pair += time.Since(start)
	}
	id := fmt.Sprintf("%s error table (%d cells)", cand.Name(), len(table.Cells))
	if err := cache.PutErrorTable(estimate.ErrorTableKey(cand), id, table); err != nil {
		return validation{}, err
	}
	return validation{candidate: cand, pairs: pairs, table: table}, nil
}

// deployment is one cold preparation: a fresh sweep cache filled by
// `sweep -validate` and then `sweep -validate -piecewise`, sharing one
// sample memo the way one process running both would.
type deployment struct {
	dir               string
	cfg               measure.Config
	scns              []sweep.Scenario
	memo              *estimate.SampleMemo
	affine, piecewise validation
	simLat            []time.Duration // wall time of each simulated scenario
}

// prepare builds a deployment from an empty cache directory.
func prepare(root string, cfg measure.Config, scns []sweep.Scenario, pr *probes) (*deployment, error) {
	dir, err := os.MkdirTemp(root, "cache-")
	if err != nil {
		return nil, err
	}
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, cfg: cfg, scns: scns, memo: estimate.NewSampleMemo()}
	if pr != nil {
		estimate.Instrument(pr.reg, d.memo)
	}
	ref := &timedSim{inner: estimate.Sim{Memo: d.memo}}
	if d.affine, err = validate(scns, cfg, estimate.FitConfig{}, cache, d.memo, ref, pr); err != nil {
		return nil, err
	}
	if d.piecewise, err = validate(scns, cfg, estimate.FitConfig{Piecewise: true}, cache, d.memo, ref, pr); err != nil {
		return nil, err
	}
	d.simLat = ref.lat
	return d, nil
}

// timedSim is the sim backend with every estimate's wall time recorded.
// Its name and provenance are the simulator's, so sweep-cache keys are
// unchanged.
type timedSim struct {
	inner estimate.Sim
	mu    sync.Mutex
	lat   []time.Duration
}

func (t *timedSim) Name() string       { return t.inner.Name() }
func (t *timedSim) Provenance() string { return t.inner.Provenance() }

func (t *timedSim) Estimate(ctx context.Context, mach *machine.Machine, op machine.Op, algs mpi.Algorithms, p, m int, cfg measure.Config) (estimate.Estimate, error) {
	start := time.Now()
	e, err := t.inner.Estimate(ctx, mach, op, algs, p, m, cfg)
	d := time.Since(start)
	t.mu.Lock()
	t.lat = append(t.lat, d)
	t.mu.Unlock()
	return e, err
}

// worker is one serve.Server configured the way cmd/serve ships it
// (gate, answer cache, metrics, sampled trace ring, 30 s deadline), over
// a registry loaded from a deployment's sweep cache, listening on
// loopback.
type worker struct {
	srv *serve.Server
	obs *obs.Registry
	ln  *listener
	url string
}

// startWorker builds and starts one worker. traced samples every
// request into the trace ring; wrap, when non-nil, wraps the handler.
// The default and piecewise entries are precalibrated from the cache
// (cmd/serve -warm), and warm reports how long that took.
func startWorker(d *deployment, traced bool, wrap func(http.Handler) http.Handler) (w *worker, warm time.Duration, err error) {
	cache, err := sweep.OpenCache(d.dir)
	if err != nil {
		return nil, 0, err
	}
	reg := obs.NewRegistry()
	memo := estimate.NewSampleMemo()
	registry := estimate.StandardRegistry(estimate.RegistryConfig{Store: cache, Memo: memo, Obs: reg, Config: d.cfg})
	if n := sweep.AttachBounds(registry, cache); n != 2 {
		return nil, 0, fmt.Errorf("%d registry entries carry bounds, want 2 (refit-default, refit-piecewise)", n)
	}
	srv := &serve.Server{
		Registry: registry, Default: defaultRegistry,
		Sim: estimate.Sim{Memo: memo}, Config: d.cfg,
		Timeout: 30 * time.Second,
		Gate:    serve.NewGate(2*runtime.GOMAXPROCS(0), 128),
		Obs:     serve.NewMetrics(reg),
		Cache:   serve.NewAnswerCache(1 << 18),
		Traces:  obs.NewTraceRing(256), TraceSample: 100, TraceSlow: time.Second,
	}
	if traced {
		srv.Traces, srv.TraceSample = obs.NewTraceRing(1<<14), 1
	}
	start := time.Now()
	for _, name := range []string{defaultRegistry, "refit-piecewise"} {
		e, err := registry.Get(name)
		if err != nil {
			return nil, 0, err
		}
		e.Backend.(*estimate.Calibrated).Precalibrate(allTriples(), 0)
	}
	warm = time.Since(start)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := listen(h)
	if err != nil {
		return nil, 0, err
	}
	return &worker{srv: srv, obs: reg, ln: ln, url: ln.url}, warm, nil
}

func (w *worker) close() { w.ln.close() }

// allTriples is every (machine, op, algorithm) a request may name.
func allTriples() []estimate.Triple {
	var out []estimate.Triple
	for _, mach := range machine.All() {
		for _, op := range machine.Ops {
			for _, alg := range estimate.ValidAlgorithms(mach, op) {
				out = append(out, estimate.Triple{Machine: mach, Op: op, Alg: alg})
			}
		}
	}
	return out
}

// listener serves a handler on a loopback port until closed.
type listener struct {
	srv  *http.Server
	done chan error
	url  string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 120 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the server and waits for its accept loop to exit.
func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// newClient returns a keep-alive client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// post sends one request and reads the whole response into buf.
func post(c *http.Client, url, contentType string, body []byte, header http.Header, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// setUp pays one deployment from an empty cache to the first servable
// answer: both validations, the worker's registry load and warm-up, the
// listener, and one answered request over loopback.
func (b *bench) setUp() (*deployment, *worker, time.Duration, error) {
	start := time.Now()
	cfg := methodology(b.seed)
	scns, err := defaultGrid(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	d, err := prepare(b.dir, cfg, scns, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	w, _, err := startWorker(d, false, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	var buf bytes.Buffer
	status, err := post(newClient(), w.url+"/v1/estimate", "application/json",
		[]byte(`{"machine":"SP2","op":"alltoall","p":32,"m":1024}`), nil, &buf)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first answer: status %d: %s", status, buf.Bytes())
	}
	if err != nil {
		w.close()
		return nil, nil, 0, err
	}
	return d, w, time.Since(start), nil
}

// setUps runs three set-ups, reports their median as setup_s, and keeps
// the last deployment and worker running for the workload.
func (b *bench) setUps(res *result) (*deployment, *worker, error) {
	var times []float64
	var d *deployment
	var w *worker
	for i := 0; i < 3; i++ {
		if w != nil {
			w.close()
		}
		var took time.Duration
		var err error
		if d, w, took, err = b.setUp(); err != nil {
			return nil, nil, err
		}
		times = append(times, took.Seconds())
	}
	res.note("setup: %d cold set-ups (validate + validate -piecewise + serve start + first answer): %.3f s", len(times), times)
	res.add("setup_s", "s", median(times))
	return d, w, nil
}
