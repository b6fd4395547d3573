package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
)

// tinyCfg keeps handler tests fast while preserving the methodology.
var tinyCfg = measure.Config{Warmup: 1, K: 2, Reps: 1, Seed: 3}

// testServer builds a server over a fixed two-entry registry: a tiny
// calibrated set (sizes 4,8 × lengths 16,1024) with handcrafted error
// bounds, and the paper's Table 3.
func testServer(t testing.TB) *Server {
	t.Helper()
	memo := estimate.NewSampleMemo()
	cal := &estimate.Calibrated{
		Config: tinyCfg, Sizes: []int{4, 8}, Lengths: []int{16, 1024}, Memo: memo,
	}
	bounds := &estimate.ErrorTable{
		Backend: cal.Name(), Provenance: cal.Provenance(),
		Cells: []estimate.ErrorCell{
			{Machine: "T3D", Op: machine.OpBroadcast, M: 16, Median: 0.01, Max: 0.05, Points: 4},
			{Machine: "T3D", Op: machine.OpBroadcast, M: 1024, Median: 0.02, Max: 0.08, Points: 4},
		},
	}
	reg := estimate.NewRegistry()
	for _, e := range []*estimate.Entry{
		{
			Name: "test-cal", Description: "tiny calibrated set",
			Backend: cal, Bounds: bounds, Ranges: cal.Range,
		},
		{
			Name: "paper", Description: "paper Table 3",
			Backend: estimate.PaperAnalytic(),
		},
	} {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	return &Server{
		Registry: reg, Default: "test-cal",
		Sim: estimate.Sim{Memo: memo}, Config: tinyCfg,
	}
}

// post sends body to the estimate endpoint (plus rawQuery, e.g.
// "registry=paper") and returns the recorded response.
func post(t *testing.T, s *Server, body, rawQuery string) *httptest.ResponseRecorder {
	t.Helper()
	url := "/v1/estimate"
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func decode(t *testing.T, rec *httptest.ResponseRecorder) Response {
	t.Helper()
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, rec.Body.String())
	}
	return resp
}

func TestSingleScenarioShorthand(t *testing.T) {
	s := testServer(t)
	rec := post(t, s, `{"machine":"T3D","op":"broadcast","p":8,"m":1024}`, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decode(t, rec)
	if resp.Registry != "test-cal" || resp.Backend != estimate.BackendCalibrated {
		t.Fatalf("envelope %+v", resp)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("got %d answers", len(resp.Answers))
	}
	a := resp.Answers[0]
	if a.Backend != estimate.BackendCalibrated || a.Fallback || a.Micros <= 0 {
		t.Fatalf("answer %+v", a)
	}
	if a.Algorithm != "default" {
		t.Fatalf("algorithm echo %q, want the normalized default alias", a.Algorithm)
	}
	if a.ExpectedError == nil || a.ExpectedError.BasisM != 1024 || a.ExpectedError.RelMedian != 0.02 {
		t.Fatalf("expected_error %+v", a.ExpectedError)
	}
	// Provenance travels both in the envelope and the headers.
	if got := rec.Header().Get("X-Estimate-Registry"); got != "test-cal" {
		t.Fatalf("X-Estimate-Registry %q", got)
	}
	if got := rec.Header().Get("X-Estimate-Provenance"); got != resp.Provenance || got == "" {
		t.Fatalf("X-Estimate-Provenance %q vs body %q", got, resp.Provenance)
	}
}

func TestBoundUsesNearestValidatedLength(t *testing.T) {
	s := testServer(t)
	// m=300 is inside the calibrated range but was never validated;
	// the bound must come from the nearest validated length (1024 is
	// nearer than 16 on a log scale) and say so via basis_m.
	resp := decode(t, post(t, s, `{"machine":"T3D","op":"broadcast","p":8,"m":300}`, ""))
	a := resp.Answers[0]
	if a.Fallback {
		t.Fatalf("m=300 should be in range: %+v", a)
	}
	if a.ExpectedError == nil || a.ExpectedError.BasisM != 1024 {
		t.Fatalf("expected_error %+v, want basis_m 1024", a.ExpectedError)
	}
}

// TestSparseBoundsDropSegmentClaim: when the validation grid has no
// cell inside the serving segment, BoundIn borrows the nearest cell
// from another regime — the answer must then carry the bound WITHOUT
// segment_m_min/segment_m_max, never a basis_m that contradicts the
// segment it claims to be scoped to.
func TestSparseBoundsDropSegmentClaim(t *testing.T) {
	memo := estimate.NewSampleMemo()
	reg := estimate.StandardRegistry(estimate.RegistryConfig{Memo: memo})
	entry, err := reg.Get("refit-piecewise")
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately sparse validation: only the longest length.
	entry.Bounds = &estimate.ErrorTable{
		Backend: entry.Backend.Name(), Provenance: entry.Backend.Provenance(),
		Cells: []estimate.ErrorCell{
			{Machine: "T3D", Op: machine.OpBroadcast, M: 65536, Median: 0.002, Max: 0.004, Points: 4},
		},
	}
	s := &Server{Registry: reg, Default: "refit-piecewise", Sim: estimate.Sim{Memo: memo}}
	resp := decode(t, post(t, s, `{"machine":"T3D","op":"broadcast","p":8,"m":16}`, ""))
	a := resp.Answers[0]
	if a.Fallback || a.ExpectedError == nil {
		t.Fatalf("answer %+v", a)
	}
	b := a.ExpectedError
	if b.BasisM != 65536 {
		t.Fatalf("basis_m %d, want the only validated cell 65536", b.BasisM)
	}
	if b.SegmentMMin != 0 || b.SegmentMMax != 0 {
		t.Fatalf("cross-regime bound must not claim segment scope: %+v", b)
	}
}

func TestBatchArrayAndRegistrySelection(t *testing.T) {
	s := testServer(t)
	body := `[{"machine":"T3D","op":"broadcast","p":8,"m":16},
	          {"machine":"SP2","op":"alltoall","p":8,"m":1024}]`
	resp := decode(t, post(t, s, body, ""))
	if len(resp.Answers) != 2 || resp.Registry != "test-cal" {
		t.Fatalf("envelope %+v", resp)
	}
	if resp.Answers[1].Machine != "SP2" || resp.Answers[1].Op != "alltoall" {
		t.Fatalf("answers out of request order: %+v", resp.Answers)
	}

	// A bare array picks its registry from the query string; the
	// envelope form carries it in the body.
	viaQuery := decode(t, post(t, s, body, "registry=paper"))
	if viaQuery.Backend != estimate.BackendAnalytic {
		t.Fatalf("query registry selection: %+v", viaQuery)
	}
	viaBody := decode(t, post(t, s,
		`{"registry":"paper","scenarios":[{"machine":"SP2","op":"alltoall","p":8,"m":1024}]}`, ""))
	if viaBody.Backend != estimate.BackendAnalytic || len(viaBody.Answers) != 1 {
		t.Fatalf("body registry selection: %+v", viaBody)
	}
}

func TestOutOfRangeFallsBackToSim(t *testing.T) {
	s := testServer(t)
	// m=65536 leaves the tiny calibrated envelope (m ≤ 1024); the
	// answer must come from the exact simulator, flagged, and match a
	// direct sim measurement bit for bit.
	resp := decode(t, post(t, s, `{"machine":"T3D","op":"broadcast","p":8,"m":65536}`, ""))
	a := resp.Answers[0]
	if !a.Fallback || a.Backend != estimate.BackendSim {
		t.Fatalf("answer %+v, want sim fallback", a)
	}
	if !strings.Contains(a.FallbackReason, "outside the calibrated range") {
		t.Fatalf("reason %q", a.FallbackReason)
	}
	if a.ExpectedError != nil {
		t.Fatalf("sim fallback should carry no bound: %+v", a.ExpectedError)
	}
	mach := machine.T3D()
	want, err := estimate.Sim{}.Estimate(context.Background(), mach, machine.OpBroadcast, mpi.DefaultAlgorithms(mach), 8, 65536, tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Micros != want.Sample.Micros {
		t.Fatalf("fallback micros %v, direct sim %v", a.Micros, want.Sample.Micros)
	}

	// An expression set with no fit at all for the pair (Table 3 never
	// fitted allgather) falls back too, with a different reason — even
	// on this fixture's unbounded paper entry, where evaluating the
	// missing expression would otherwise panic.
	uncovered := decode(t, post(t, s, `{"machine":"SP2","op":"allgather","p":8,"m":64}`, "registry=paper"))
	u := uncovered.Answers[0]
	if !u.Fallback || u.Backend != estimate.BackendSim || !strings.Contains(u.FallbackReason, "no paper expression") {
		t.Fatalf("uncovered pair answer %+v", u)
	}
}

func TestStandardRegistryUncoveredPair(t *testing.T) {
	memo := estimate.NewSampleMemo()
	reg := estimate.StandardRegistry(estimate.RegistryConfig{Memo: memo, Config: tinyCfg})
	s := &Server{Registry: reg, Default: "paper-table3", Sim: estimate.Sim{Memo: memo}, Config: tinyCfg}
	// Table 3 has no allgather row: the standard registry's paper
	// entry reports the pair uncovered and the simulator answers.
	resp := decode(t, post(t, s, `{"machine":"SP2","op":"allgather","p":8,"m":64}`, ""))
	a := resp.Answers[0]
	if !a.Fallback || a.Backend != estimate.BackendSim {
		t.Fatalf("answer %+v, want sim fallback for an unfitted pair", a)
	}
	if !strings.Contains(a.FallbackReason, "no paper-table3 expression") {
		t.Fatalf("reason %q", a.FallbackReason)
	}
	// In-table requests stay analytic.
	in := decode(t, post(t, s, `{"machine":"SP2","op":"alltoall","p":8,"m":1024}`, ""))
	if in.Answers[0].Fallback || in.Answers[0].Backend != estimate.BackendAnalytic {
		t.Fatalf("in-table answer %+v", in.Answers[0])
	}
	// Table 3 models the vendor-default algorithms only: naming another
	// variant must be answered by sim (not silently served the default
	// variant's number), while naming the default variant explicitly
	// stays analytic.
	variant := decode(t, post(t, s, `{"machine":"SP2","op":"alltoall","algorithm":"bruck","p":8,"m":1024}`, ""))
	v := variant.Answers[0]
	if !v.Fallback || v.Backend != estimate.BackendSim ||
		!strings.Contains(v.FallbackReason, "vendor-default algorithms only") {
		t.Fatalf("non-default variant answer %+v", v)
	}
	named := decode(t, post(t, s, `{"machine":"SP2","op":"alltoall","algorithm":"pairwise","p":8,"m":1024}`, ""))
	if named.Answers[0].Fallback || named.Answers[0].Backend != estimate.BackendAnalytic {
		t.Fatalf("explicitly-named default variant answer %+v", named.Answers[0])
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name string
		body string
		want string // substring of the error message
	}{
		{"syntax", `{"machine":`, "decoding request"},
		{"empty", `{}`, "no scenarios"},
		{"empty-array", `[]`, "no scenarios"},
		{"unknown-machine", `{"machine":"SP3","op":"broadcast","p":8,"m":16}`, `unknown machine "SP3" (valid: Paragon, SP2, T3D)`},
		{"unknown-op", `{"machine":"SP2","op":"gossip","p":8,"m":16}`, `unknown operation "gossip"`},
		{"unknown-algorithm", `{"machine":"SP2","op":"broadcast","algorithm":"quantum","p":8,"m":16}`, `unknown algorithm "quantum"`},
		{"hardware-needs-machine", `{"machine":"SP2","op":"barrier","algorithm":"hardware","p":8}`, `unknown algorithm "hardware"`},
		{"p-too-small", `{"machine":"SP2","op":"broadcast","p":1,"m":16}`, "at least 2 nodes"},
		{"p-too-big", `{"machine":"T3D","op":"broadcast","p":1024,"m":16}`, "exceeds the T3D's 64 nodes"},
		{"m-negative", `{"machine":"SP2","op":"broadcast","p":8,"m":-4}`, "negative message length"},
		{"m-too-big", `{"machine":"SP2","op":"broadcast","p":8,"m":999999999}`, "exceeds the service cap"},
		{"unknown-registry", `{"registry":"nope","scenarios":[{"machine":"SP2","op":"broadcast","p":8,"m":16}]}`, `unknown registry "nope" (valid: paper, test-cal)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, s, tc.body, "")
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("non-JSON error body: %s", rec.Body.String())
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Fatalf("error %q, want substring %q", e.Error, tc.want)
			}
		})
	}
}

func TestBatchCapAndMethods(t *testing.T) {
	s := testServer(t)
	s.MaxBatch = 2
	rec := post(t, s, `[{"machine":"T3D","op":"broadcast","p":8,"m":16},
		{"machine":"T3D","op":"broadcast","p":8,"m":16},
		{"machine":"T3D","op":"broadcast","p":8,"m":16}]`, "")
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "batch cap") {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}

	get := httptest.NewRequest(http.MethodGet, "/v1/estimate", nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, get)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/estimate status %d", rec.Code)
	}
}

func TestRegistryEndpoint(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/registry", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp RegistryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Default != "test-cal" || len(resp.Registries) != 2 {
		t.Fatalf("listing %+v", resp)
	}
	// Entries are sorted by name; the calibrated one advertises its
	// attached bounds.
	if resp.Registries[0].Name != "paper" || resp.Registries[1].Name != "test-cal" {
		t.Fatalf("order %+v", resp.Registries)
	}
	if resp.Registries[1].BoundsCells != 2 || resp.Registries[0].BoundsCells != 0 {
		t.Fatalf("bounds cells %+v", resp.Registries)
	}
}

// TestBatchedRequestsConcurrently exercises the worker-pool fan-out and
// the registry under concurrent batched requests — the test the race
// gate runs with -race.
func TestBatchedRequestsConcurrently(t *testing.T) {
	s := testServer(t)
	s.Workers = 4
	var scns []Scenario
	for _, op := range machine.Ops {
		for _, p := range []int{4, 8} {
			for _, m := range []int{16, 1024} {
				scns = append(scns, Scenario{Machine: "T3D", Op: string(op), P: p, M: m})
			}
		}
	}
	body, err := json.Marshal(scns)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 4
	responses := make([]Response, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(string(body)))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				panic(fmt.Sprintf("status %d: %s", rec.Code, rec.Body.String()))
			}
			var resp Response
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				panic(err)
			}
			responses[c] = resp
		}(c)
	}
	wg.Wait()

	for c, resp := range responses {
		if len(resp.Answers) != len(scns) {
			t.Fatalf("client %d: %d answers for %d scenarios", c, len(resp.Answers), len(scns))
		}
		for i, a := range resp.Answers {
			if a.Op != scns[i].Op || a.P != scns[i].P {
				t.Fatalf("client %d answer %d echoes %+v, want %+v", c, i, a.Scenario, scns[i])
			}
			if a.Micros <= 0 {
				t.Fatalf("client %d answer %d has no time: %+v", c, i, a)
			}
		}
		// Concurrent clients asking the same batch get identical
		// numbers — calibration and memoization are shared, not raced.
		for i := range resp.Answers {
			if resp.Answers[i].Micros != responses[0].Answers[i].Micros ||
				resp.Answers[i].Backend != responses[0].Answers[i].Backend {
				t.Fatalf("client %d answer %d differs: %+v vs %+v",
					c, i, resp.Answers[i], responses[0].Answers[i])
			}
		}
	}
}

// TestResponsesAreByteStable posts the same batch twice and requires
// identical bytes — the property the golden files pin across versions.
func TestResponsesAreByteStable(t *testing.T) {
	s := testServer(t)
	body := `[{"machine":"T3D","op":"broadcast","p":8,"m":16},
	          {"machine":"T3D","op":"broadcast","p":8,"m":65536},
	          {"machine":"Paragon","op":"scan","p":4,"m":1024}]`
	first := post(t, s, body, "").Body.String()
	second := post(t, s, body, "").Body.String()
	if first != second {
		t.Fatalf("responses differ:\n%s\nvs\n%s", first, second)
	}
}
