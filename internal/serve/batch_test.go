package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/serve/wire"
)

// equivalenceRegistry is the standard registry over a small
// calibration grid (p ∈ {4, 8}, the paper's lengths) with seeded error
// tables on every entry, so closed-form answers carry bounds.
func equivalenceRegistry(t *testing.T, rng *rand.Rand, memo *estimate.SampleMemo) *estimate.Registry {
	t.Helper()
	reg := estimate.StandardRegistry(estimate.RegistryConfig{Memo: memo, Config: tinyCfg, Sizes: []int{4, 8}})
	for _, name := range []string{"paper-table3", "refit-default", "refit-piecewise"} {
		e, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		table := &estimate.ErrorTable{Backend: e.Backend.Name(), Provenance: e.Backend.Provenance()}
		for _, mach := range machine.Names() {
			for _, op := range equivalenceOps {
				lengths := []int{0}
				if op != machine.OpBarrier {
					lengths = []int{16, 64 << rng.Intn(4), 65536}
				}
				for _, m := range lengths {
					table.Cells = append(table.Cells, estimate.ErrorCell{
						Machine: mach, Op: op, M: m,
						Median: rng.Float64() / 10, Max: rng.Float64(), Points: 1 + rng.Intn(8),
					})
				}
			}
		}
		table.Sort()
		e.Bounds = table
	}
	return reg
}

// equivalenceOps covers a fitted op with variants, the barrier (m
// normalized to 0), and allgather, which paper-table3 never fitted.
var equivalenceOps = []machine.Op{machine.OpBroadcast, machine.OpAlltoall, machine.OpBarrier, machine.OpAllgather}

// randomScenario draws one scenario: mostly inside the calibrated
// envelope (p ∈ [4, 8], m ∈ [4, 65536]), sometimes outside it, with
// the algorithm spelled as "", "default", or a named variant (which
// may be the vendor default the alias resolves to).
func randomScenario(rng *rand.Rand) Scenario {
	names := machine.Names()
	mach := machine.ByName(names[rng.Intn(len(names))])
	op := equivalenceOps[rng.Intn(len(equivalenceOps))]
	algs := append(estimate.ValidAlgorithms(mach, op), "")
	sc := Scenario{
		Machine: mach.Name(), Op: string(op), Algorithm: algs[rng.Intn(len(algs))],
		P: 4 + rng.Intn(5), M: 4 << rng.Intn(15),
	}
	switch rng.Intn(10) {
	case 0:
		sc.P = 2 + rng.Intn(2) // below the calibrated sizes
	case 1:
		sc.M = 100000 // beyond the longest calibrated length
	case 2:
		sc.M = rng.Intn(4) // below the shortest
	}
	if op == machine.OpBarrier {
		sc.M = rng.Intn(5000) // any length; the service answers m = 0
	}
	return sc
}

// referenceAnswer answers one scenario the per-scenario way, from the
// public estimate API alone: resolve the names, decide the fallback,
// call Backend.Estimate (the entry's, or the simulator's), and look up
// the entry's bound.
func referenceAnswer(t *testing.T, s *Server, entry *estimate.Entry, sc Scenario) Answer {
	t.Helper()
	mach, err := estimate.ResolveMachine(sc.Machine)
	if err != nil {
		t.Fatal(err)
	}
	op, err := estimate.ResolveOp(sc.Op)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := estimate.ResolveAlgorithm(mach, op, sc.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	vendor := mpi.DefaultAlgorithms(mach)
	algs := vendor
	if alg != sweepDefaultAlg {
		algs = algs.With(op, alg)
	}
	p, m := sc.P, sc.M
	if op == machine.OpBarrier {
		m = 0
	}
	a := Answer{Scenario: Scenario{Machine: mach.Name(), Op: string(op), Algorithm: alg, P: p, M: m}}
	uncovered := fmt.Sprintf("%s/%s has no %s expression; answered by the exact simulator", mach.Name(), op, entry.Name)
	reason := ""
	an, analytic := entry.Backend.(*estimate.Analytic)
	switch in, rng := entry.Covers(mach, op, p, m); {
	case analytic && !an.Covers(mach.Name(), op):
		reason = uncovered
	case analytic && alg != sweepDefaultAlg && alg != vendor.Get(op):
		reason = fmt.Sprintf("the %s expression set models vendor-default algorithms only, not %s[%s]; answered by the exact simulator",
			entry.Name, op, alg)
	case !in && rng == (estimate.Range{}):
		reason = uncovered
	case !in:
		reason = fmt.Sprintf("p=%d m=%d is outside the calibrated range %s; answered by the exact simulator", p, m, rng)
	}
	backend := entry.Backend
	if reason != "" {
		backend = s.Sim
	}
	est, err := backend.Estimate(context.Background(), mach, op, algs, p, m, s.Config)
	if err != nil {
		t.Fatal(err)
	}
	a.Micros, a.Backend = est.Sample.Micros, est.Backend
	if reason != "" {
		a.Fallback, a.FallbackReason = true, reason
		return a
	}
	if cal, ok := entry.Backend.(*estimate.Calibrated); ok && cal.Fit.Piecewise {
		if seg, ok := cal.Expression(mach, op, alg).SegmentFor(m); ok {
			if cell, ok := entry.Bounds.BoundIn(mach.Name(), op, m, seg.MMin, seg.MMax); ok {
				a.ExpectedError = &Bound{RelMedian: cell.Median, RelMax: cell.Max, BasisM: cell.M, Points: cell.Points}
				if cell.M >= seg.MMin && cell.M <= seg.MMax {
					a.ExpectedError.SegmentMMin, a.ExpectedError.SegmentMMax = seg.MMin, seg.MMax
				}
			}
			return a
		}
	}
	if cell, ok := entry.Bounds.Bound(mach.Name(), op, m); ok {
		a.ExpectedError = &Bound{RelMedian: cell.Median, RelMax: cell.Max, BasisM: cell.M, Points: cell.Points}
	}
	return a
}

// postCodec posts a batch for registry in one codec and returns the
// response with its answers decoded into the JSON form. Binary answers
// carry no echo or backend, so those fields come from want.
func postCodec(t *testing.T, s *Server, codec Codec, registry string, scns []Scenario, want []Answer) (int, string, []Answer) {
	t.Helper()
	var ct string
	var body []byte
	switch codec {
	case CodecJSON:
		ct = ctJSON
		body, _ = json.Marshal(struct {
			Registry  string     `json:"registry"`
			Scenarios []Scenario `json:"scenarios"`
		}{registry, scns})
	case CodecNDJSON:
		ct = ctNDJSON
		for _, sc := range scns {
			line, _ := json.Marshal(sc)
			body = append(append(body, line...), '\n')
		}
	case CodecBinary:
		ct = wire.ContentType
		req := wire.Request{Registry: registry}
		index := map[string]uint32{}
		intern := func(name string) uint32 {
			if i, ok := index[name]; ok {
				return i
			}
			index[name] = uint32(len(req.Table))
			req.Table = append(req.Table, name)
			return index[name]
		}
		for _, sc := range scns {
			req.Records = append(req.Records, wire.Record{
				Mach: intern(sc.Machine), Op: intern(sc.Op), Alg: intern(sc.Algorithm), P: sc.P, M: sc.M,
			})
		}
		body = req.Append(nil)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/estimate?registry="+url.QueryEscape(registry), bytes.NewReader(body))
	r.Header.Set("Content-Type", ct)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: non-JSON error body %q", codecNames[codec], rec.Body.String())
		}
		return rec.Code, e.Error, nil
	}
	var answers []Answer
	switch codec {
	case CodecJSON:
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		answers = resp.Answers
	case CodecNDJSON:
		for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
			var a Answer
			if err := json.Unmarshal([]byte(line), &a); err != nil {
				t.Fatal(err)
			}
			answers = append(answers, a)
		}
	case CodecBinary:
		var resp wire.Response
		if err := resp.Decode(rec.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
		for i, wa := range resp.Answers {
			a := Answer{Micros: wa.Micros, Fallback: wa.Fallback, FallbackReason: wa.FallbackReason}
			if i < len(want) {
				a.Scenario, a.Backend = want[i].Scenario, want[i].Backend
			}
			if wa.HasBound {
				a.ExpectedError = &Bound{
					RelMedian: wa.Bound.RelMedian, RelMax: wa.Bound.RelMax,
					BasisM: wa.Bound.BasisM, Points: wa.Bound.Points,
					SegmentMMin: wa.Bound.SegmentMMin, SegmentMMax: wa.Bound.SegmentMMax,
				}
			}
			answers = append(answers, a)
		}
	}
	return rec.Code, rec.Header().Get("X-Estimate-Cache"), answers
}

func sameAnswer(got, want Answer) bool {
	if got.Scenario != want.Scenario || got.Micros != want.Micros || got.Backend != want.Backend ||
		got.Fallback != want.Fallback || got.FallbackReason != want.FallbackReason {
		return false
	}
	if got.ExpectedError == nil || want.ExpectedError == nil {
		return got.ExpectedError == want.ExpectedError
	}
	return *got.ExpectedError == *want.ExpectedError
}

// TestBatchEquivalenceAcrossCodecs posts seeded random batches — the
// three registry entries, in- and out-of-envelope points, the default
// alias beside its named variant, barriers at any m, and duplicate
// scenarios — in each codec to its own answer-cached server, twice
// (cold, then warm), and requires every answer to equal the
// per-scenario reference exactly: same float64 µs, same bound. Some
// batches carry an unknown name at a random index and must fail with
// the 400 message that names that scenario.
func TestBatchEquivalenceAcrossCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	memo := estimate.NewSampleMemo()
	reg := equivalenceRegistry(t, rng, memo)
	servers := make([]*Server, numCodecs)
	for c := range servers {
		servers[c] = &Server{
			Registry: reg, Default: "refit-default", Sim: estimate.Sim{Memo: memo}, Config: tinyCfg,
			Workers: 2, Cache: NewAnswerCache(1 << 12),
		}
	}
	batches := 12
	if raceEnabled {
		batches = 4
	}
	registries := []string{"paper-table3", "refit-default", "refit-piecewise"}
	seen := map[string]int{}
	for b := 0; b < batches; b++ {
		registry := registries[b%len(registries)]
		entry, err := reg.Get(registry)
		if err != nil {
			t.Fatal(err)
		}
		scns := make([]Scenario, 1+rng.Intn(150))
		for i := range scns {
			if i > 0 && rng.Intn(5) == 0 {
				scns[i] = scns[rng.Intn(i)] // a duplicate
			} else {
				scns[i] = randomScenario(rng)
			}
		}
		want := make([]Answer, len(scns))
		for i, sc := range scns {
			want[i] = referenceAnswer(t, servers[0], entry, sc)
			for _, kind := range []string{"outside the calibrated range", "has no", "vendor-default"} {
				if strings.Contains(want[i].FallbackReason, kind) {
					seen[kind]++
				}
			}
			if e := want[i].ExpectedError; e != nil && e.SegmentMMax > 0 {
				seen["segment-scoped bound"]++
			}
		}
		wantErr := ""
		if b%3 == 2 {
			i := rng.Intn(len(scns))
			bad := scns[i]
			var err error
			switch rng.Intn(3) {
			case 0:
				bad.Machine = "CM5"
				_, err = estimate.ResolveMachine(bad.Machine)
			case 1:
				bad.Op = "shuffle"
				_, err = estimate.ResolveOp(bad.Op)
			default:
				bad.Algorithm = "carrier-pigeon"
				_, err = estimate.ResolveAlgorithm(machine.ByName(bad.Machine), machine.Op(bad.Op), bad.Algorithm)
			}
			scns[i] = bad
			wantErr = fmt.Sprintf("scenario %d (%s/%s): %v", i, bad.Machine, bad.Op, err)
		}
		for c := Codec(0); c < numCodecs; c++ {
			for _, pass := range []string{"cold", "warm"} {
				code, verdict, got := postCodec(t, servers[c], c, registry, scns, want)
				if wantErr != "" {
					if code != http.StatusBadRequest || verdict != wantErr {
						t.Fatalf("batch %d %s %s: status %d %q, want 400 %q", b, codecNames[c], pass, code, verdict, wantErr)
					}
					continue
				}
				if code != http.StatusOK {
					t.Fatalf("batch %d %s %s: status %d: %s", b, codecNames[c], pass, code, verdict)
				}
				if pass == "warm" && verdict != "hit" {
					t.Fatalf("batch %d %s warm: X-Estimate-Cache %q, want hit", b, codecNames[c], verdict)
				}
				if len(got) != len(want) {
					t.Fatalf("batch %d %s %s: %d answers, want %d", b, codecNames[c], pass, len(got), len(want))
				}
				for i := range want {
					if !sameAnswer(got[i], want[i]) {
						t.Fatalf("batch %d %s %s answer %d (%+v):\n got %+v %+v\nwant %+v %+v",
							b, codecNames[c], pass, i, scns[i], got[i], got[i].ExpectedError, want[i], want[i].ExpectedError)
					}
				}
			}
		}
	}
	// The draw must have exercised every fallback kind and the
	// piecewise segment scoping, or the equivalence proves little.
	for _, kind := range []string{"outside the calibrated range", "has no", "vendor-default", "segment-scoped bound"} {
		if seen[kind] == 0 {
			t.Errorf("no reference answer with %q in the random batches", kind)
		}
	}
}

// rendezvousSim blocks every fallback simulation until want of them
// have started, and fails one that waits past the timeout: the probe
// that one request's fallbacks run concurrently.
type rendezvousSim struct {
	inner   estimate.Backend
	want    int
	mu      sync.Mutex
	started int
	all     chan struct{}
}

func (b *rendezvousSim) Name() string       { return b.inner.Name() }
func (b *rendezvousSim) Provenance() string { return b.inner.Provenance() }
func (b *rendezvousSim) Estimate(ctx context.Context, mach *machine.Machine, op machine.Op, algs mpi.Algorithms, p, m int, cfg measure.Config) (estimate.Estimate, error) {
	b.mu.Lock()
	if b.started++; b.started == b.want {
		close(b.all)
	}
	b.mu.Unlock()
	select {
	case <-b.all:
		return b.inner.Estimate(ctx, mach, op, algs, p, m, cfg)
	case <-time.After(10 * time.Second):
		return estimate.Estimate{}, fmt.Errorf("fallback ran alone: %d of %d fallbacks started", b.want-1, b.want)
	}
}

// TestFallbacksRunInParallel: with a two-worker pool, a batch of
// closed-form scenarios with two sim fallbacks among them answers only
// if the two simulations are in flight at once — a dispatcher that
// queued one request's fallbacks behind each other (say, in the same
// block) times out into a 500.
func TestFallbacksRunInParallel(t *testing.T) {
	s := testServer(t)
	s.Workers = 2
	sim := &rendezvousSim{inner: s.Sim, want: 2, all: make(chan struct{})}
	s.Sim = sim
	var batch []string
	for i := 0; i < 2*blockSize; i++ {
		m := 16
		if i == 5 || i == 9 { // outside the calibrated m ≤ 1024, in one block
			m = 65536 + i
		}
		batch = append(batch, fmt.Sprintf(`{"machine":"T3D","op":"broadcast","p":8,"m":%d}`, m))
	}
	rec := post(t, s, "["+strings.Join(batch, ",")+"]", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decode(t, rec)
	for i, a := range resp.Answers {
		if a.Fallback != (i == 5 || i == 9) {
			t.Fatalf("answer %d fallback %v", i, a.Fallback)
		}
	}
}
