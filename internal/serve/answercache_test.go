package serve

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
)

// countingBackend counts Estimate calls — wrapped around Server.Sim, the
// probe that proves the answer cache's single flight actually
// deduplicates fallback simulations.
type countingBackend struct {
	inner estimate.Backend
	calls atomic.Int64
}

func (b *countingBackend) Name() string       { return b.inner.Name() }
func (b *countingBackend) Provenance() string { return b.inner.Provenance() }
func (b *countingBackend) Estimate(ctx context.Context, mach *machine.Machine, op machine.Op, algs mpi.Algorithms, p, m int, cfg measure.Config) (estimate.Estimate, error) {
	b.calls.Add(1)
	return b.inner.Estimate(ctx, mach, op, algs, p, m, cfg)
}

// cachedServer is testServer plus a bounded answer cache, metrics, and
// a call counter around its fallback simulator.
func cachedServer(t *testing.T, size int) (*Server, *countingBackend) {
	t.Helper()
	s := testServer(t)
	sim := &countingBackend{inner: s.Sim}
	s.Sim = sim
	s.Cache = NewAnswerCache(size)
	instrument(s)
	return s, sim
}

func cacheHeader(t *testing.T, s *Server, body string) string {
	t.Helper()
	rec := post(t, s, body, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Header().Get("X-Estimate-Cache")
}

// TestAnswerCacheHitMissHeader: only sim fallbacks use the cache. Cold
// fallbacks report miss, warm ones hit, a request with no fallback and
// a server without a cache report bypass — with the
// serve_answer_cache_total series counting per fallback scenario. p=2
// lies below testServer's calibrated sizes, so those scenarios fall
// back.
func TestAnswerCacheHitMissHeader(t *testing.T) {
	s, sim := cachedServer(t, 1024)
	batch := `[{"machine":"T3D","op":"broadcast","p":2,"m":16},
	           {"machine":"T3D","op":"broadcast","p":2,"m":1024}]`
	if got := cacheHeader(t, s, batch); got != "miss" {
		t.Fatalf("cold batch X-Estimate-Cache %q, want miss", got)
	}
	if got := cacheHeader(t, s, batch); got != "hit" {
		t.Fatalf("warm batch X-Estimate-Cache %q, want hit", got)
	}
	if calls := sim.calls.Load(); calls != 2 {
		t.Fatalf("simulator ran %d times for 2 distinct fallbacks, want 2", calls)
	}
	// A batch mixing a warm fallback with a cold one is still a miss;
	// its closed-form scenario does not touch the cache.
	mixed := `[{"machine":"T3D","op":"broadcast","p":2,"m":16},
	           {"machine":"T3D","op":"broadcast","p":8,"m":16},
	           {"machine":"T3D","op":"broadcast","p":2,"m":64}]`
	if got := cacheHeader(t, s, mixed); got != "miss" {
		t.Fatalf("mixed batch X-Estimate-Cache %q, want miss", got)
	}
	// Closed forms alone never touch the cache.
	closed := `[{"machine":"T3D","op":"broadcast","p":8,"m":16},
	            {"machine":"T3D","op":"broadcast","p":4,"m":1024}]`
	for pass := 0; pass < 2; pass++ {
		if got := cacheHeader(t, s, closed); got != "bypass" {
			t.Fatalf("closed-form batch pass %d X-Estimate-Cache %q, want bypass", pass, got)
		}
	}
	if calls := sim.calls.Load(); calls != 3 {
		t.Fatalf("simulator ran %d times for 3 distinct fallbacks, want 3", calls)
	}
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	for series, want := range map[string]uint64{
		`serve_answer_cache_total{result="miss"}`:   3, // 2 cold + 1 new in mixed
		`serve_answer_cache_total{result="hit"}`:    3, // 2 warm + 1 warm in mixed
		`serve_answer_cache_total{result="bypass"}`: 0,
	} {
		if got := vals[series]; got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}

	noCache := testServer(t)
	instrument(noCache)
	if got := cacheHeader(t, noCache, batch); got != "bypass" {
		t.Fatalf("cacheless X-Estimate-Cache %q, want bypass", got)
	}
	vals = promValues(t, get(t, noCache, "/metrics").Body.String())
	if got := vals[`serve_answer_cache_total{result="bypass"}`]; got != 2 {
		t.Errorf("bypass total = %d, want 2", got)
	}
}

// TestAnswerCacheIdenticalAnswers: cached answers are the same bytes as
// computed ones — the cache is invisible except for speed.
func TestAnswerCacheIdenticalAnswers(t *testing.T) {
	s, _ := cachedServer(t, 1024)
	body := `[{"machine":"T3D","op":"broadcast","p":8,"m":16},
	          {"machine":"T3D","op":"broadcast","p":8,"m":65536}]`
	cold := post(t, s, body, "").Body.String()
	warm := post(t, s, body, "").Body.String()
	if cold != warm {
		t.Fatalf("cached response differs:\n%s\nvs\n%s", cold, warm)
	}
	// And matches the cacheless server's bytes exactly.
	plain := post(t, testServer(t), body, "").Body.String()
	if cold != plain {
		t.Fatalf("cached response differs from uncached:\n%s\nvs\n%s", cold, plain)
	}
}

// TestAnswerCacheSingleFlight: many concurrent requests for one cold
// fallback scenario simulate it exactly once and produce exact hit/miss
// totals — the concurrency contract the race gate runs under -race.
func TestAnswerCacheSingleFlight(t *testing.T) {
	s, counting := cachedServer(t, 64)

	const clients = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := post(t, s, `{"machine":"SP2","op":"alltoall","p":2,"m":1024}`, "")
			if rec.Code != http.StatusOK {
				panic(fmt.Sprintf("status %d: %s", rec.Code, rec.Body.String()))
			}
		}()
	}
	wg.Wait()

	if calls := counting.calls.Load(); calls != 1 {
		t.Fatalf("simulator ran %d times for one scenario, want 1 (single flight)", calls)
	}
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	if miss := vals[`serve_answer_cache_total{result="miss"}`]; miss != 1 {
		t.Errorf("miss total = %d, want exactly 1", miss)
	}
	if hit := vals[`serve_answer_cache_total{result="hit"}`]; hit != clients-1 {
		t.Errorf("hit total = %d, want exactly %d", hit, clients-1)
	}
}

// TestAnswerCacheInvalidation: the cache key carries the backend's
// provenance, so a recalibrated backend — here a second calibrated
// entry over a different grid — never sees the old entry's fallback
// answers, while an identically-provenanced backend shares them.
func TestAnswerCacheInvalidation(t *testing.T) {
	memo := estimate.NewSampleMemo()
	mkCal := func(lengths []int) *estimate.Calibrated {
		return &estimate.Calibrated{
			Config: tinyCfg, Sizes: []int{4, 8}, Lengths: lengths, Memo: memo,
		}
	}
	calA, calB := mkCal([]int{16, 1024}), mkCal([]int{16, 2048})
	calTwin := mkCal([]int{16, 1024}) // same grid as A: same provenance
	if calA.Provenance() == calB.Provenance() {
		t.Fatal("fixture broken: different grids share a provenance")
	}
	reg := estimate.NewRegistry()
	for name, cal := range map[string]*estimate.Calibrated{
		"cal-a": calA, "cal-b": calB, "cal-twin": calTwin,
	} {
		if err := reg.Register(&estimate.Entry{
			Name: name, Description: name, Backend: cal, Ranges: cal.Range,
		}); err != nil {
			t.Fatal(err)
		}
	}
	sim := &countingBackend{inner: estimate.Sim{Memo: memo}}
	s := &Server{Registry: reg, Default: "cal-a", Sim: sim, Config: tinyCfg,
		Cache: NewAnswerCache(1024)}

	// p=2 lies below every entry's calibrated sizes: a sim fallback.
	const body = `{"machine":"T3D","op":"broadcast","p":2,"m":16}`
	header := func(registry string, wantCalls int64) string {
		rec := post(t, s, body, "registry="+registry)
		if rec.Code != http.StatusOK {
			t.Fatalf("registry %s: status %d: %s", registry, rec.Code, rec.Body.String())
		}
		if calls := sim.calls.Load(); calls != wantCalls {
			t.Fatalf("registry %s: simulator ran %d times in all, want %d", registry, calls, wantCalls)
		}
		return rec.Header().Get("X-Estimate-Cache")
	}
	if got := header("cal-a", 1); got != "miss" {
		t.Fatalf("cold cal-a: %q, want miss", got)
	}
	if got := header("cal-a", 1); got != "hit" {
		t.Fatalf("warm cal-a: %q, want hit", got)
	}
	// A different provenance is a different epoch: no stale answer.
	if got := header("cal-b", 2); got != "miss" {
		t.Fatalf("cal-b after cal-a: %q, want miss (provenance change must invalidate)", got)
	}
	// An identical provenance shares the epoch — and the answers.
	if got := header("cal-twin", 2); got != "hit" {
		t.Fatalf("cal-twin after cal-a: %q, want hit (identical provenance shares)", got)
	}
	// The original epoch is untouched by the recalibrated entry's traffic.
	if got := header("cal-a", 2); got != "hit" {
		t.Fatalf("cal-a after cal-b: %q, want hit", got)
	}
}

// TestAnswerCacheEviction: the cache never exceeds its configured
// capacity, and evicted fallbacks simply re-simulate as misses.
func TestAnswerCacheEviction(t *testing.T) {
	s, sim := cachedServer(t, acShards) // one answer per shard
	if s.Cache.Cap() != acShards {
		t.Fatalf("Cap() = %d, want %d", s.Cache.Cap(), acShards)
	}
	for m := 0; m < 64; m++ {
		body := fmt.Sprintf(`{"machine":"T3D","op":"broadcast","p":2,"m":%d}`, m)
		if rec := post(t, s, body, ""); rec.Code != http.StatusOK {
			t.Fatalf("m=%d: status %d: %s", m, rec.Code, rec.Body.String())
		}
		if n := s.Cache.Len(); n > s.Cache.Cap() {
			t.Fatalf("after %d scenarios: Len() = %d exceeds Cap() = %d", m+1, n, s.Cache.Cap())
		}
	}
	if s.Cache.Len() == 0 {
		t.Fatal("cache empty after traffic")
	}
	if calls := sim.calls.Load(); calls != 64 {
		t.Fatalf("simulator ran %d times for 64 distinct fallbacks, want 64", calls)
	}
}

// TestClosedFormsWithoutExpressionCallBackend: an entry whose backend
// exposes no expression — here a call counter around the paper's
// analytic — answers each closed-form scenario with one
// Backend.Estimate call per request, never cached, and with the same
// answers and bounds the paper entry computes in place.
func TestClosedFormsWithoutExpressionCallBackend(t *testing.T) {
	counting := &countingBackend{inner: estimate.PaperAnalytic()}
	bounds := &estimate.ErrorTable{Cells: []estimate.ErrorCell{
		{Machine: "SP2", Op: machine.OpAlltoall, M: 16, Median: 0.01, Max: 0.05, Points: 4},
		{Machine: "SP2", Op: machine.OpAlltoall, M: 4096, Median: 0.02, Max: 0.08, Points: 4},
	}}
	bounds.Sort()
	reg := estimate.NewRegistry()
	for _, e := range []*estimate.Entry{
		{Name: "counted", Description: "analytic behind a call counter", Backend: counting, Bounds: bounds},
		{Name: "paper", Description: "paper Table 3", Backend: estimate.PaperAnalytic(), Bounds: bounds},
	} {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	s := &Server{Registry: reg, Default: "counted", Sim: estimate.Sim{}, Config: tinyCfg,
		Cache: NewAnswerCache(64)}
	const body = `[{"machine":"SP2","op":"alltoall","p":8,"m":1024},
	               {"machine":"SP2","op":"alltoall","p":16,"m":100}]`
	want := decode(t, post(t, s, body, "registry=paper")).Answers
	for pass := 0; pass < 2; pass++ {
		rec := post(t, s, body, "")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Estimate-Cache") != "bypass" {
			t.Fatalf("pass %d: status %d, X-Estimate-Cache %q", pass, rec.Code, rec.Header().Get("X-Estimate-Cache"))
		}
		if got := decode(t, rec).Answers; !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: answers %+v, want %+v", pass, got, want)
		}
	}
	if calls := counting.calls.Load(); calls != 4 {
		t.Fatalf("backend called %d times for 2 scenarios over 2 requests, want 4", calls)
	}
	if want[0].ExpectedError == nil || want[1].ExpectedError == nil {
		t.Fatalf("fixture broken: paper answers carry no bounds: %+v", want)
	}
}
