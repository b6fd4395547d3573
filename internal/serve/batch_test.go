package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/estimate"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/paper"
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
// response with its answers decoded into the JSON form. A binary frame
// lists each name copies times (see wireFrame). Binary answers carry no
// echo or backend, so those fields come from want.
func postCodec(t *testing.T, s *Server, codec Codec, copies int, registry string, scns []Scenario, want []Answer) (int, string, []Answer) {
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
		body = wireFrame(registry, scns, copies)
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
// per-scenario reference exactly: same float64 µs, same bound. Binary
// frames go three ways: each name once in the string table, every name
// at two indexes, and every record under index triples of its own
// (which, in the batch longer than half the wireTable, overflows it).
// The warm pass serves every fallback from the cache ("hit", no
// simulation; a batch without fallbacks is a "bypass"). Some batches
// carry an unknown name at a random index, or an invalid (p, m) after
// valid records of its triple, and must fail with the 400 message that
// names that scenario.
func TestBatchEquivalenceAcrossCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	memo := estimate.NewSampleMemo()
	reg := equivalenceRegistry(t, rng, memo)
	type shape struct {
		name   string
		codec  Codec
		copies int // of each name in a binary frame's table; 0: one per record
	}
	shapes := []shape{
		{"json", CodecJSON, 1}, {"ndjson", CodecNDJSON, 1},
		{"binary", CodecBinary, 1}, {"binary repeated names", CodecBinary, 2}, {"binary triple per record", CodecBinary, 0},
	}
	servers := make([]*Server, len(shapes))
	sims := make([]*countingBackend, len(shapes))
	for c := range servers {
		sims[c] = &countingBackend{inner: estimate.Sim{Memo: memo}}
		servers[c] = &Server{
			Registry: reg, Default: "refit-default", Sim: sims[c], Config: tinyCfg,
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
		n := 1 + rng.Intn(150)
		if b == 1 {
			n += wireSlots / 2 // past the wireTable's capacity
		}
		scns := make([]Scenario, n)
		for i := range scns {
			if i > 0 && rng.Intn(5) == 0 {
				scns[i] = scns[rng.Intn(i)] // a duplicate
			} else {
				scns[i] = randomScenario(rng)
			}
		}
		want := make([]Answer, len(scns))
		warmVerdict := "bypass"
		for i, sc := range scns {
			want[i] = referenceAnswer(t, servers[0], entry, sc)
			if want[i].Fallback {
				warmVerdict = "hit"
			}
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
			switch rng.Intn(5) {
			case 0:
				bad.Machine = "CM5"
				_, err = estimate.ResolveMachine(bad.Machine)
			case 1:
				bad.Op = "shuffle"
				_, err = estimate.ResolveOp(bad.Op)
			case 2:
				bad.Algorithm = "carrier-pigeon"
				_, err = estimate.ResolveAlgorithm(machine.ByName(bad.Machine), machine.Op(bad.Op), bad.Algorithm)
			default:
				// An invalid (p, m) after every record, on a triple the
				// request already uses; a barrier's m is ignored, and a
				// negative m has no binary form.
				i = len(scns)
				switch k := rng.Intn(3); {
				case k == 0 || k == 1 && bad.Op == string(machine.OpBarrier):
					bad.P = 1
					err = fmt.Errorf("p=%d: a collective needs at least 2 nodes", bad.P)
				case k == 1 || bad.Op == string(machine.OpBarrier):
					max := machine.ByName(bad.Machine).MaxNodes()
					bad.P = max + 1
					err = fmt.Errorf("p=%d exceeds the %s's %d nodes", bad.P, bad.Machine, max)
				default:
					bad.M = 16<<20 + 1
					err = fmt.Errorf("m=%d exceeds the service cap of %d bytes", bad.M, 16<<20)
				}
			}
			if i == len(scns) {
				scns = append(scns, bad)
				seen["invalid record after valid ones"]++
			} else {
				scns[i] = bad
			}
			wantErr = fmt.Sprintf("scenario %d (%s/%s): %v", i, bad.Machine, bad.Op, err)
		}
		for c, sh := range shapes {
			copies := sh.copies
			if copies == 0 {
				copies = len(scns)
				if len(scns) > wireSlots/2 && wantErr == "" {
					seen["more index triples than the wireTable holds"]++
				}
			}
			for _, pass := range []string{"cold", "warm"} {
				calls := sims[c].calls.Load()
				code, verdict, got := postCodec(t, servers[c], sh.codec, copies, registry, scns, want)
				if wantErr != "" {
					if code != http.StatusBadRequest || verdict != wantErr {
						t.Fatalf("batch %d %s %s: status %d %q, want 400 %q", b, sh.name, pass, code, verdict, wantErr)
					}
					continue
				}
				if code != http.StatusOK {
					t.Fatalf("batch %d %s %s: status %d: %s", b, sh.name, pass, code, verdict)
				}
				if pass == "warm" && verdict != warmVerdict {
					t.Fatalf("batch %d %s warm: X-Estimate-Cache %q, want %s", b, sh.name, verdict, warmVerdict)
				}
				if ran := sims[c].calls.Load() - calls; pass == "warm" && ran != 0 {
					t.Fatalf("batch %d %s warm: simulator ran %d times, want 0 (every fallback a hit)", b, sh.name, ran)
				}
				if len(got) != len(want) {
					t.Fatalf("batch %d %s %s: %d answers, want %d", b, sh.name, pass, len(got), len(want))
				}
				for i := range want {
					if !sameAnswer(got[i], want[i]) {
						t.Fatalf("batch %d %s %s answer %d (%+v):\n got %+v %+v\nwant %+v %+v",
							b, sh.name, pass, i, scns[i], got[i], got[i].ExpectedError, want[i], want[i].ExpectedError)
					}
				}
			}
		}
	}
	// The draw must have exercised every fallback kind, the piecewise
	// segment scoping and the wireTable's edges, or the equivalence
	// proves little.
	for _, kind := range []string{
		"outside the calibrated range", "has no", "vendor-default", "segment-scoped bound",
		"invalid record after valid ones", "more index triples than the wireTable holds",
	} {
		if seen[kind] == 0 {
			t.Errorf("no %q in the random batches", kind)
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
// queued one request's fallbacks behind each other (say, both on the
// handler goroutine) times out into a 500.
func TestFallbacksRunInParallel(t *testing.T) {
	s := testServer(t)
	s.Workers = 2
	sim := &rendezvousSim{inner: s.Sim, want: 2, all: make(chan struct{})}
	s.Sim = sim
	var batch []string
	for i := 0; i < 128; i++ {
		m := 16
		if i == 5 || i == 9 { // outside the calibrated m ≤ 1024, close together
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

// TestBoundColumnMatchesLookup: a group's bound column gives every
// m in [0, 70 000] the Bound the per-scenario lookup gives —
// ErrorTable.Bound for an affine expression; for a piecewise one,
// BoundIn over the segment SegmentFor picks, stamped with the segment
// only for an in-segment basis — over the paper's message lengths and
// over a sparse, unsorted table with a repeated length where one
// segment holds no cell.
func TestBoundColumnMatchesLookup(t *testing.T) {
	const mach, op = "T3D", machine.OpBroadcast
	full := &estimate.ErrorTable{}
	for i, m := range paper.MessageLengths() {
		full.Cells = append(full.Cells, estimate.ErrorCell{Machine: mach, Op: op, M: m,
			Median: float64(i) / 100, Max: float64(i) / 10, Points: 1 + i})
	}
	full.Cells = append(full.Cells, estimate.ErrorCell{Machine: mach, Op: machine.OpGather, M: 300, Median: 1, Max: 2, Points: 3})
	full.Sort()
	sparse := &estimate.ErrorTable{Cells: []estimate.ErrorCell{
		{Machine: mach, Op: op, M: 65536, Median: 0.5, Max: 0.6, Points: 2},
		{Machine: mach, Op: op, M: 16, Median: 0.1, Max: 0.2, Points: 1},
		{Machine: "SP2", Op: op, M: 1024, Median: 0.9, Max: 0.9, Points: 9},
		{Machine: mach, Op: op, M: 4, Median: 0.3, Max: 0.4, Points: 5},
		{Machine: mach, Op: op, M: 16, Median: 0.7, Max: 0.8, Points: 6},
	}}
	affine := fit.Expression{}
	piecewise := fit.Expression{Segments: []fit.Segment{{MMin: 4, MMax: 256}, {MMin: 256, MMax: 4096}, {MMin: 4096, MMax: 65536}}}
	for tname, table := range map[string]*estimate.ErrorTable{"paper lengths": full, "sparse": sparse} {
		for ename, expr := range map[string]fit.Expression{"affine": affine, "piecewise": piecewise} {
			g := &group{expr: expr, bounds: boundColumns(table, mach, op, expr.Segments)}
			for m := 0; m <= 70000; m++ {
				var want *Bound
				cell, ok := table.Bound(mach, op, m)
				seg, scoped := expr.SegmentFor(m)
				if scoped {
					cell, ok = table.BoundIn(mach, op, m, seg.MMin, seg.MMax)
				}
				if ok {
					want = &Bound{RelMedian: cell.Median, RelMax: cell.Max, BasisM: cell.M, Points: cell.Points}
					if scoped && cell.M >= seg.MMin && cell.M <= seg.MMax {
						want.SegmentMMin, want.SegmentMMax = seg.MMin, seg.MMax
					}
				}
				got := g.bound(m)
				if (got == nil) != (want == nil) || got != nil && *got != *want {
					t.Fatalf("%s table, %s expression, m=%d: bound %+v, want %+v", tname, ename, m, got, want)
				}
			}
		}
	}
	for _, table := range []*estimate.ErrorTable{nil, full} {
		if cols := boundColumns(table, "Paragon", op, nil); cols != nil {
			t.Fatalf("no row for the pair: columns %+v, want none", cols)
		}
	}
}

// TestWireTableResetAfterHugeRequest: a pooled scratch that resolved a
// frame with more index triples than its wireTable holds starts the
// next request with one generation bump, not a sweep — reset writes no
// slot, so a huge request cannot slow the small ones after it — and the
// small frame, whose index triple (0, 1, 2) names another triple than
// it did in the huge frame, resolves to its own groups, never to a
// stale slot. When the generation wraps, reset clears the slots once.
func TestWireTableResetAfterHugeRequest(t *testing.T) {
	s := testServer(t)
	entry, err := s.registry().Get("test-cal")
	if err != nil {
		t.Fatal(err)
	}
	es := s.entryState(entry)
	resolve := func(scr *scratch, frame []byte, scns []Scenario) {
		t.Helper()
		scr.reset(len(scns))
		if err := scr.wreq.Decode(frame); err != nil {
			t.Fatal(err)
		}
		if err := s.resolveWire(es, entry, &scr.wreq, scr); err != nil {
			t.Fatal(err)
		}
		for i, it := range scr.items {
			if g := scr.groups[it.g]; g.mach.Name() != scns[i].Machine || string(g.op) != scns[i].Op {
				t.Fatalf("record %d (%s/%s) resolved to %s/%s", i, scns[i].Machine, scns[i].Op, g.mach.Name(), g.op)
			}
		}
	}
	t3d := Scenario{Machine: "T3D", Op: "broadcast", P: 8, M: 16}
	sp2 := Scenario{Machine: "SP2", Op: "alltoall", P: 8, M: 1024}
	huge := make([]Scenario, 3*wireSlots)
	for i := range huge {
		huge[i] = []Scenario{t3d, sp2}[i%2]
	}
	scr := &scratch{byID: make(map[uint64]int32)}
	// Every record under its own index triple; record 0's, (0, 1, 2),
	// names T3D/broadcast, the huge request's group 0.
	resolve(scr, wireFrame("", huge, len(huge)), huge)
	if scr.wtab.n != wireSlots/2 || len(scr.groups) != 2 {
		t.Fatalf("huge frame: %d table entries, %d groups; want a full table (%d) and 2 groups", scr.wtab.n, len(scr.groups), wireSlots/2)
	}
	slots := scr.wtab.slots
	scr.reset(2)
	if scr.wtab.slots != slots || scr.wtab.n != 0 {
		t.Fatal("reset swept the table's slots")
	}
	// Here (0, 1, 2) names SP2/alltoall, the small request's group 1.
	small := wire.Request{
		Table: []string{"SP2", "alltoall", "", "T3D", "broadcast"},
		Records: []wire.Record{
			{Mach: 3, Op: 4, Alg: 2, P: t3d.P, M: t3d.M},
			{Mach: 0, Op: 1, Alg: 2, P: sp2.P, M: sp2.M},
		},
	}
	resolve(scr, small.Append(nil), []Scenario{t3d, sp2})
	if scr.wtab.n != 2 {
		t.Fatalf("small frame: %d table entries, want 2", scr.wtab.n)
	}
	scr.wtab.gen = math.MaxUint32
	scr.wtab.reset()
	if scr.wtab.gen != 1 || scr.wtab.slots != [wireSlots]wireSlot{} {
		t.Fatalf("wrapped generation: gen %d, slots not cleared", scr.wtab.gen)
	}
}
