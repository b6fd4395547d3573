package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/estimate"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/serve"
)

// worker is one in-process serving instance: a full serve.Server over
// the paper's analytic registry, instrumented and tracing, behind an
// httptest listener.
type worker struct {
	ts  *httptest.Server
	srv *serve.Server
}

func newWorker(t *testing.T) *worker {
	t.Helper()
	reg := estimate.NewRegistry()
	if err := reg.Register(&estimate.Entry{
		Name: "paper", Description: "paper Table 3", Backend: estimate.PaperAnalytic(),
	}); err != nil {
		t.Fatal(err)
	}
	srv := &serve.Server{
		Registry: reg, Default: "paper",
		Sim:    estimate.Sim{Memo: estimate.NewSampleMemo()},
		Config: measure.Config{Warmup: 1, K: 2, Reps: 1, Seed: 3},
		Obs:    serve.NewMetrics(obs.NewRegistry()),
		Traces: obs.NewTraceRing(32), TraceSample: 1,
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &worker{ts: ts, srv: srv}
}

const scenario = `{"machine":"SP2","op":"alltoall","p":8,"m":1024}`

// drive posts n ok scenarios to w; the optional traceID rides on the
// last one.
func drive(t *testing.T, w *worker, n int, traceID string) {
	t.Helper()
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodPost, w.ts.URL+"/v1/estimate", strings.NewReader(scenario))
		if err != nil {
			t.Fatal(err)
		}
		if traceID != "" && i == n-1 {
			req.Header.Set(serve.TraceIDHeader, traceID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("worker request %d: status %d", i, resp.StatusCode)
		}
	}
}

// TestFleetEndToEnd runs two live workers, drives traffic, scrapes
// them, and requires the merged view to be the exact sum — then kills
// one worker and requires staleness marking without the fleet totals
// moving backwards. It also retrieves a fixed trace ID from a worker's
// /debug/traces, closing the loop from request header to sampled trace.
func TestFleetEndToEnd(t *testing.T) {
	w0, w1 := newWorker(t), newWorker(t)
	drive(t, w0, 3, "")
	drive(t, w1, 2, "fleet-e2e-trace")
	// One client error on w0: it must appear in the merged totals too.
	resp, err := http.Post(w0.ts.URL+"/v1/estimate", "application/json", strings.NewReader(`{oops`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", resp.StatusCode)
	}

	base := time.Now()
	var offset time.Duration
	scraper, err := New(Config{
		Targets: []Target{
			{Name: "w0", URL: w0.ts.URL + "/metrics"},
			{Name: "w1", URL: w1.ts.URL + "/metrics"},
		},
		Interval: 10 * time.Second, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	scraper.now = func() time.Time { return base.Add(offset) }

	if ok := scraper.ScrapeOnce(context.Background()); ok != 2 {
		t.Fatalf("first round scraped %d of 2", ok)
	}
	merged, err := scraper.Merged()
	if err != nil {
		t.Fatal(err)
	}
	snap := merged.Snapshot()

	// Fleet totals are the exact sum of the per-instance series.
	for series, want := range map[string]uint64{
		`serve_requests_total{outcome="ok"}`:               5,
		`serve_requests_total{outcome="ok",instance="w0"}`: 3,
		`serve_requests_total{outcome="ok",instance="w1"}`: 2,
		`serve_requests_total{outcome="client_error"}`:     1,
		`serve_scenarios_total{mode="closed_form"}`:        5,
		`fleet_scrapes_total{instance="w0"}`:               1,
		`fleet_scrape_errors_total{instance="w0"}`:         0,
	} {
		if got := snap[series]; got != any(want) {
			t.Errorf("%s = %v, want %d", series, got, want)
		}
	}
	for series, want := range map[string]int64{
		`fleet_instance_up{instance="w0"}`:    1,
		`fleet_instance_up{instance="w1"}`:    1,
		`fleet_instance_stale{instance="w0"}`: 0,
		`fleet_instance_stale{instance="w1"}`: 0,
		`fleet_instances`:                     2,
	} {
		if got := snap[series]; got != any(want) {
			t.Errorf("%s = %v, want %d", series, got, want)
		}
	}

	// Histogram merge is exact bucket-wise: the fleet series equals the
	// bucket-by-bucket sum of its instance series.
	total, okT := snap[`serve_batch_size`].(obs.HistogramSnapshot)
	h0, ok0 := snap[`serve_batch_size{instance="w0"}`].(obs.HistogramSnapshot)
	h1, ok1 := snap[`serve_batch_size{instance="w1"}`].(obs.HistogramSnapshot)
	if !okT || !ok0 || !ok1 {
		t.Fatalf("batch histograms missing: %v %v %v", okT, ok0, ok1)
	}
	if total.Count != h0.Count+h1.Count || total.Count != 5 {
		t.Fatalf("batch count %d, want %d+%d=5", total.Count, h0.Count, h1.Count)
	}
	if total.Sum != h0.Sum+h1.Sum {
		t.Fatalf("batch sum %d != %d + %d", total.Sum, h0.Sum, h1.Sum)
	}
	byLe := map[uint64]uint64{}
	for _, h := range []obs.HistogramSnapshot{h0, h1} {
		for _, b := range h.Buckets {
			byLe[b.Le] += b.N
		}
	}
	gotLe := map[uint64]uint64{}
	for _, b := range total.Buckets {
		gotLe[b.Le] = b.N
	}
	if !reflect.DeepEqual(gotLe, byLe) {
		t.Fatalf("fleet buckets %v, bucket-wise sum %v", gotLe, byLe)
	}

	// The fixed trace ID is retrievable from the worker that served it,
	// with every pipeline stage populated.
	assertTraceRetrievable(t, w1, "fleet-e2e-trace")

	// Kill w1 and advance past the staleness window: the next round
	// marks it down and stale, but its last-good snapshot keeps the
	// fleet totals intact.
	w1.ts.Close()
	offset = staleIntervals*10*time.Second + time.Second
	if ok := scraper.ScrapeOnce(context.Background()); ok != 1 {
		t.Fatalf("post-kill round scraped %d, want 1 (w0 only)", ok)
	}
	status := map[string]InstanceStatus{}
	for _, st := range scraper.Status() {
		status[st.Name] = st
	}
	if st := status["w0"]; !st.Up || st.Stale || st.Failures != 0 {
		t.Errorf("w0 status %+v, want up and fresh", st)
	}
	if st := status["w1"]; st.Up || !st.Stale || st.Failures == 0 || st.Error == "" {
		t.Errorf("w1 status %+v, want down, stale, failed", st)
	}

	merged, err = scraper.Merged()
	if err != nil {
		t.Fatal(err)
	}
	snap = merged.Snapshot()
	for series, want := range map[string]uint64{
		`serve_requests_total{outcome="ok"}`:               5, // unchanged: w1's last-good still counts
		`serve_requests_total{outcome="ok",instance="w1"}`: 2,
		`fleet_scrape_errors_total{instance="w1"}`:         1,
	} {
		if got := snap[series]; got != any(want) {
			t.Errorf("after kill: %s = %v, want %d", series, got, want)
		}
	}
	for series, want := range map[string]int64{
		`fleet_instance_up{instance="w1"}`:    0,
		`fleet_instance_stale{instance="w1"}`: 1,
		`fleet_instance_up{instance="w0"}`:    1,
	} {
		if got := snap[series]; got != any(want) {
			t.Errorf("after kill: %s = %v, want %d", series, got, want)
		}
	}
}

// assertTraceRetrievable fetches the worker's /debug/traces and finds
// the record with the given trace ID, all stages present.
func assertTraceRetrievable(t *testing.T, w *worker, traceID string) {
	t.Helper()
	resp, err := http.Get(w.ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: status %d", resp.StatusCode)
	}
	found := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec obs.TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if rec.TraceID != traceID {
			continue
		}
		found = true
		if rec.Outcome != "ok" || rec.Status != http.StatusOK || rec.DurationNS <= 0 {
			t.Errorf("trace record %+v", rec)
		}
		if len(rec.Stages) != int(obs.NumStages) {
			t.Errorf("trace stages %v, want all %d", rec.Stages, obs.NumStages)
		}
		var sum int64
		for _, ns := range rec.Stages {
			sum += ns
		}
		if sum <= 0 {
			t.Errorf("trace accumulated no stage time: %v", rec.Stages)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("trace %q not in /debug/traces", traceID)
	}
}

// TestScraperNeverUpTarget: a target that never answers contributes no
// worker series but is fully marked in the health families.
func TestScraperNeverUpTarget(t *testing.T) {
	scraper, err := New(Config{
		Targets: []Target{{Name: "ghost", URL: "http://127.0.0.1:1/metrics"}},
		Timeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok := scraper.ScrapeOnce(context.Background()); ok != 0 {
		t.Fatalf("scraped %d targets, want 0", ok)
	}
	merged, err := scraper.Merged()
	if err != nil {
		t.Fatal(err)
	}
	snap := merged.Snapshot()
	if got := snap[`fleet_instance_up{instance="ghost"}`]; got != any(int64(0)) {
		t.Errorf("fleet_instance_up = %v, want 0", got)
	}
	if got := snap[`fleet_instance_stale{instance="ghost"}`]; got != any(int64(1)) {
		t.Errorf("fleet_instance_stale = %v, want 1", got)
	}
	if got := snap[`fleet_scrape_errors_total{instance="ghost"}`]; got != any(uint64(1)) {
		t.Errorf("fleet_scrape_errors_total = %v, want 1", got)
	}
	for name := range snap {
		if strings.HasPrefix(name, "serve_") {
			t.Errorf("ghost target contributed worker series %s", name)
		}
	}
}

// TestNewValidation: bad configs are refused up front.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no targets accepted")
	}
	if _, err := New(Config{Targets: []Target{{Name: "a"}}}); err == nil {
		t.Error("empty URL accepted")
	}
	if _, err := New(Config{Targets: []Target{
		{Name: "a", URL: "http://x/metrics"}, {Name: "a", URL: "http://y/metrics"},
	}}); err == nil {
		t.Error("duplicate instance name accepted")
	}
}
