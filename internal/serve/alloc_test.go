package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/serve/wire"
	"repro/internal/sweep"
)

// warmBatchAllocBudget is the allocation budget of one warm
// 788-scenario binary request through Server.Handler under this test's
// setup: 15 (0.019 per scenario), what it allocates since the closed
// forms are answered inline in the handler goroutine into pooled
// answer columns — no block goroutines, no WaitGroup on the heap.
// Counts do not drift with host speed, so a rise is a regression on
// the request path.
const warmBatchAllocBudget = 15

// rewindBody is a request body the test rewinds between runs, so one
// *http.Request serves every run and its construction stays out of the
// count.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// countingWriter is a ResponseWriter that keeps only the status and the
// body length, so the count is the handler's alone.
type countingWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header  { return w.h }
func (w *countingWriter) WriteHeader(code int) { w.status = code }
func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// wireFrame encodes scenarios as one binary request frame. The string
// table holds each distinct name copies times, and record i takes its
// names from copy i%copies: with one copy every name is listed once;
// with more the same triple travels under several index triples.
func wireFrame(registry string, scns []Scenario, copies int) []byte {
	req := wire.Request{Registry: registry}
	type named struct {
		name string
		copy int
	}
	index := map[named]uint32{}
	intern := func(s string, c int) uint32 {
		k := named{s, c}
		if i, ok := index[k]; ok {
			return i
		}
		index[k] = uint32(len(req.Table))
		req.Table = append(req.Table, s)
		return index[k]
	}
	for i, sc := range scns {
		c := i % copies
		req.Records = append(req.Records, wire.Record{
			Mach: intern(sc.Machine, c), Op: intern(sc.Op, c), Alg: intern(sc.Algorithm, c), P: sc.P, M: sc.M,
		})
	}
	return req.Append(nil)
}

// defaultGridFrame is the default 788-scenario sweep grid as one binary
// request frame, and the triples that grid calibrates.
func defaultGridFrame(t *testing.T) ([]byte, []estimate.Triple) {
	t.Helper()
	spec := sweep.Spec{Algorithms: sweep.AllAlgorithms(machine.Ops), Sizes: estimate.DefaultCalibrationSizes}
	expanded, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(expanded) != 788 {
		t.Fatalf("default grid has %d scenarios, want 788", len(expanded))
	}
	scns := make([]Scenario, len(expanded))
	triples := make([]estimate.Triple, len(expanded))
	for i, sc := range expanded {
		scns[i] = Scenario{Machine: sc.Machine, Op: string(sc.Op), Algorithm: sc.Algorithm, P: sc.P, M: sc.M}
		triples[i] = estimate.Triple{Machine: machine.ByName(sc.Machine), Op: sc.Op, Alg: sc.Algorithm}
	}
	return wireFrame("", scns, 1), triples
}

// TestWarmBatchAllocBudget counts the allocations of a warm
// 788-scenario binary request (every answer a closed form from a
// memoized group)
// through the full handler stack with metrics attached and a two-worker
// pool, and fails above warmBatchAllocBudget.
func TestWarmBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; counts are meaningless")
	}
	memo := estimate.NewSampleMemo()
	reg := estimate.StandardRegistry(estimate.RegistryConfig{Memo: memo})
	entry, err := reg.Get("refit-default")
	if err != nil {
		t.Fatal(err)
	}
	frame, triples := defaultGridFrame(t)
	entry.Backend.(*estimate.Calibrated).Precalibrate(triples, 0)
	s := &Server{
		Registry: reg, Default: "refit-default", Sim: estimate.Sim{Memo: memo},
		Workers: 2, Cache: NewAnswerCache(1 << 12), Obs: NewMetrics(obs.NewRegistry()),
	}
	h := s.Handler()
	body := rewindBody{bytes.NewReader(frame)}
	r := httptest.NewRequest(http.MethodPost, "/v1/estimate", nil)
	r.Header.Set("Content-Type", wire.ContentType)
	r.Body = body
	w := &countingWriter{h: http.Header{}}
	serve := func() {
		body.Seek(0, 0)
		clear(w.h)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, r)
	}
	serve() // cold: build and publish every group
	serve()
	// The grid lies inside the calibrated envelope: every answer is a
	// closed form computed in place, so the cache is never touched.
	if w.status != http.StatusOK || w.h.Get("X-Estimate-Cache") != "bypass" {
		t.Fatalf("warm request: status %d, X-Estimate-Cache %q", w.status, w.h.Get("X-Estimate-Cache"))
	}
	allocs := testing.AllocsPerRun(50, serve)
	t.Logf("%.0f allocations per warm request, %.4f per scenario", allocs, allocs/788)
	if allocs > warmBatchAllocBudget {
		t.Errorf("%.0f allocations per warm 788-scenario request, budget %d", allocs, warmBatchAllocBudget)
	}
}
