package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/coll"
	"repro/internal/estimate"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/paper"
)

// tinyCfg keeps executor tests fast: one warm-up-free iteration, one
// execution.
var tinyCfg = measure.Config{Warmup: 0, K: 1, Reps: 1, Seed: 7}

func TestExpandDefaultsCoverPaperGrid(t *testing.T) {
	scns, err := Spec{}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	lengths := len(paper.MessageLengths())
	for _, m := range machine.All() {
		sizes := len(paper.MachineSizes(m.Name()))
		want += sizes * (1 + (len(machine.Ops)-1)*lengths) // barrier has one length
	}
	if len(scns) != want {
		t.Fatalf("expanded %d scenarios, want %d", len(scns), want)
	}
	fast := measure.Fast()
	for _, sc := range scns {
		if sc.Config != fast {
			t.Fatalf("%s: config %+v, want fast default", sc.ID(), sc.Config)
		}
		if sc.Algorithm != DefaultAlgorithm {
			t.Fatalf("%s: algorithm %q, want default", sc.ID(), sc.Algorithm)
		}
		if sc.Op == machine.OpBarrier && sc.M != 0 {
			t.Fatalf("barrier scenario with m=%d", sc.M)
		}
		if sc.P > machine.ByName(sc.Machine).MaxNodes() {
			t.Fatalf("%s exceeds allocation", sc.ID())
		}
	}
}

func TestExpandValidates(t *testing.T) {
	cases := []Spec{
		{Machines: []string{"CM-5"}},
		{Ops: []machine.Op{"gossip"}},
		{Algorithms: map[machine.Op][]string{machine.OpBroadcast: {"telepathy"}}},
		{Sizes: []int{1}},
		{Lengths: []int{-4}},
		{Config: measure.Config{K: 0, Reps: 1}},
		// Hardware barrier as the sole variant on a machine without
		// the circuit must error, not silently measure the default.
		{Machines: []string{"SP2"}, Ops: []machine.Op{machine.OpBarrier},
			Algorithms: map[machine.Op][]string{machine.OpBarrier: {coll.AlgHardware}}},
	}
	for i, sp := range cases {
		if _, err := sp.Expand(); err == nil {
			t.Errorf("case %d: Expand accepted invalid spec %+v", i, sp)
		}
	}
}

func TestExpandHardwareBarrierOnlyWhereSupported(t *testing.T) {
	sp := Spec{
		Ops:        []machine.Op{machine.OpBarrier},
		Algorithms: map[machine.Op][]string{machine.OpBarrier: {coll.AlgHardware, coll.AlgTree}},
		Sizes:      []int{4},
	}
	scns, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, sc := range scns {
		got[sc.Machine] = append(got[sc.Machine], sc.Algorithm)
	}
	for mach, algs := range got {
		wantHW := machine.ByName(mach).HardwareBarrier()
		hasHW := false
		for _, a := range algs {
			hasHW = hasHW || a == coll.AlgHardware
		}
		if hasHW != wantHW {
			t.Errorf("%s: hardware barrier expanded=%v, machine support=%v", mach, hasHW, wantHW)
		}
	}
}

func TestAllAlgorithmsMatchesRegistries(t *testing.T) {
	m := AllAlgorithms(machine.Ops)
	for _, op := range machine.Ops {
		want := coll.Algorithms(string(op))
		if op == machine.OpBarrier {
			// The hardware barrier rides along for barrier sweeps;
			// expansion drops it on machines without the circuit.
			want = append(append([]string(nil), want...), coll.AlgHardware)
			sort.Strings(want)
		}
		if !reflect.DeepEqual(m[op], want) {
			t.Errorf("%s: %v, want %v", op, m[op], want)
		}
	}
}

func TestDeriveSeedsAreDistinctAndStable(t *testing.T) {
	sp := Spec{
		Machines: []string{"SP2"}, Ops: []machine.Op{machine.OpBroadcast},
		Sizes: []int{2, 4}, Lengths: []int{4, 64},
		Config: tinyCfg, DeriveSeeds: true,
	}
	a, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sp.Expand()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion is not deterministic")
	}
	seeds := map[int64]string{}
	for _, sc := range a {
		if prev, dup := seeds[sc.Config.Seed]; dup {
			t.Fatalf("seed collision: %s and %s", prev, sc.ID())
		}
		seeds[sc.Config.Seed] = sc.ID()
	}
}

func testScenarios(t *testing.T) []Scenario {
	t.Helper()
	sp := Spec{
		Machines: []string{"T3D"},
		Ops:      []machine.Op{machine.OpBarrier, machine.OpBroadcast, machine.OpAlltoall},
		Algorithms: map[machine.Op][]string{
			machine.OpAlltoall: coll.Algorithms(coll.OpAlltoall),
		},
		Sizes: []int{2, 4}, Lengths: []int{4, 256},
		Config: tinyCfg,
	}
	scns, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return scns
}

func TestRunnerResultsIndependentOfWorkerCount(t *testing.T) {
	scns := testScenarios(t)
	serial := (&Runner{Workers: 1}).Run(scns)
	parallel := (&Runner{Workers: 8}).Run(scns)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("results differ between 1 and 8 workers")
	}
	var md1, md8, csv1, csv8 bytes.Buffer
	if err := WriteMarkdown(&md1, "t", serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteMarkdown(&md8, "t", parallel); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csv1, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csv8, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(md1.Bytes(), md8.Bytes()) || !bytes.Equal(csv1.Bytes(), csv8.Bytes()) {
		t.Fatal("emitted artifacts differ between worker counts")
	}
}

// TestWriteCSVRows pins the per-scenario CSV layout that external
// plotting (and the Fig. 1–3 series) read: a header row, then one row
// per scenario with round-trip float precision and RFC 4180 quoting.
func TestWriteCSVRows(t *testing.T) {
	r := Result{
		Scenario: Scenario{
			Machine: "SP2", Op: machine.OpBroadcast, Algorithm: DefaultAlgorithm,
			P: 2, M: 4, Config: measure.Config{Seed: 1},
		},
		Sample:  measure.Sample{Micros: 75.668, MinMicros: 75.5, MaxMicros: 75.9, RankMin: 75.1, RankMean: 35.114999999999995},
		Backend: "a,b",
	}
	var b bytes.Buffer
	if err := WriteCSV(&b, []Result{r}); err != nil {
		t.Fatal(err)
	}
	want := "machine,op,algorithm,p,m,micros,min_micros,max_micros,rank_min,rank_mean,seed,cached,backend\n" +
		"SP2,broadcast,default,2,4,75.668,75.5,75.9,75.1,35.114999999999995,1,false,\"a,b\"\n"
	if got := b.String(); got != want {
		t.Fatalf("WriteCSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunnerMatchesSerialMeasureSweep(t *testing.T) {
	sizes := []int{2, 4, 8}
	lengths := []int{4, 1024}
	cfg := measure.Fast()
	mach := machine.Paragon()
	serial := estimate.BuildDataset(mach, machine.OpGather, mpi.DefaultAlgorithms(mach), sizes, lengths, cfg)

	sp := Spec{
		Machines: []string{"Paragon"}, Ops: []machine.Op{machine.OpGather},
		Sizes: sizes, Lengths: lengths, Config: cfg,
	}
	scns, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sharded := ToDataset((&Runner{Workers: 4}).Run(scns))
	if !reflect.DeepEqual(serial.Points, sharded.Points) {
		t.Fatalf("sharded sweep diverged from serial measure.Sweep:\n%v\nvs\n%v",
			sharded.Points, serial.Points)
	}
}

func TestRunnerCacheRoundTrip(t *testing.T) {
	scns := testScenarios(t)
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := (&Runner{Workers: 4, Cache: cache}).Run(scns)
	for _, r := range cold {
		if r.Cached {
			t.Fatalf("%s: cached on a cold run", r.Scenario.ID())
		}
	}
	warm := (&Runner{Workers: 4, Cache: cache}).Run(scns)
	for i, r := range warm {
		if !r.Cached {
			t.Fatalf("%s: not cached on a warm run", r.Scenario.ID())
		}
		if r.Sample != cold[i].Sample {
			t.Fatalf("%s: cache returned different sample", r.Scenario.ID())
		}
	}
}

func TestCacheKeyDependsOnCalibrationAndConfig(t *testing.T) {
	sc := Scenario{Machine: "SP2", Op: machine.OpBroadcast, Algorithm: DefaultAlgorithm,
		P: 4, M: 64, Config: tinyCfg}
	sim := BackendID(estimate.Sim{})
	sp2 := Fingerprint(machine.SP2())
	if sp2 != Fingerprint(machine.SP2()) {
		t.Fatal("fingerprint is not deterministic")
	}
	if sp2 == Fingerprint(machine.T3D()) {
		t.Fatal("distinct machines share a fingerprint")
	}
	k := sc.Key(sp2, sim)
	if k != sc.Key(sp2, sim) {
		t.Fatal("key is not deterministic")
	}
	if k == sc.Key(Fingerprint(machine.T3D()), sim) {
		t.Fatal("key ignores the calibration fingerprint")
	}
	reseeded := sc
	reseeded.Config.Seed++
	if k == reseeded.Key(sp2, sim) {
		t.Fatal("key ignores the measurement config")
	}
}

// TestCacheKeySelfInvalidatesAcrossBackends proves the cache never
// serves one backend's numbers to another: the key changes with the
// backend's identity and with its expression provenance (an analytic
// backend over a different expression set, or a calibrated backend
// whose calibration spec changed).
func TestCacheKeySelfInvalidatesAcrossBackends(t *testing.T) {
	sc := Scenario{Machine: "SP2", Op: machine.OpBroadcast, Algorithm: DefaultAlgorithm,
		P: 4, M: 64, Config: tinyCfg}
	fp := Fingerprint(machine.SP2())

	ids := map[string]string{
		"sim":             BackendID(estimate.Sim{}),
		"analytic(paper)": BackendID(estimate.PaperAnalytic()),
		"calibrated":      BackendID(&estimate.Calibrated{}),
	}
	keys := map[string]string{}
	for name, id := range ids {
		keys[name] = sc.Key(fp, id)
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("backends %s and %s share a cache key", prev, name)
		}
		seen[k] = name
	}

	// Same backend, different expression provenance: a refit analytic
	// predictor must not serve paper-table3 entries.
	refit := estimate.NewAnalytic(estimate.PaperAnalytic().Predictor(), "refit-2026-07")
	if sc.Key(fp, BackendID(refit)) == keys["analytic(paper)"] {
		t.Fatal("key ignores the analytic expression provenance")
	}

	// Same calibrated backend, different calibration spec.
	recal := &estimate.Calibrated{Sizes: []int{2, 8}, Lengths: []int{4, 1024}}
	if sc.Key(fp, BackendID(recal)) == keys["calibrated"] {
		t.Fatal("key ignores the calibration provenance")
	}
	recfg := &estimate.Calibrated{Config: measure.Paper()}
	if sc.Key(fp, BackendID(recfg)) == keys["calibrated"] ||
		sc.Key(fp, BackendID(recfg)) == sc.Key(fp, BackendID(recal)) {
		t.Fatal("key ignores the calibration methodology")
	}
}

// TestRunnerCacheDoesNotCrossContaminateBackends runs the same grid
// through sim and analytic against one cache directory: the second
// backend must miss (and re-estimate), not inherit the first's samples.
func TestRunnerCacheDoesNotCrossContaminateBackends(t *testing.T) {
	sp := Spec{
		Machines: []string{"SP2"}, Ops: []machine.Op{machine.OpBroadcast},
		Sizes: []int{2, 4}, Lengths: []int{4, 1024}, Config: tinyCfg,
	}
	scns, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	simCold := (&Runner{Cache: cache}).Run(scns)
	analytic := (&Runner{Cache: cache, Backend: estimate.PaperAnalytic()}).Run(scns)
	for i, r := range analytic {
		if r.Cached {
			t.Fatalf("%s: analytic run served a sim cache entry", r.Scenario.ID())
		}
		if r.Backend != estimate.BackendAnalytic {
			t.Fatalf("%s: backend label %q", r.Scenario.ID(), r.Backend)
		}
		if r.Sample.Micros == simCold[i].Sample.Micros {
			t.Fatalf("%s: analytic estimate equals the sim sample exactly — cross-contamination?",
				r.Scenario.ID())
		}
	}
	simWarm := (&Runner{Cache: cache}).Run(scns)
	for i, r := range simWarm {
		if !r.Cached || r.Sample != simCold[i].Sample {
			t.Fatalf("%s: sim warm run lost its own cache entry", r.Scenario.ID())
		}
	}
	analyticWarm := (&Runner{Cache: cache, Backend: estimate.PaperAnalytic()}).Run(scns)
	for i, r := range analyticWarm {
		if !r.Cached || r.Sample != analytic[i].Sample {
			t.Fatalf("%s: analytic warm run lost its own cache entry", r.Scenario.ID())
		}
	}
}

// TestCachePiecewiseExpressionRoundTrip: a segmented fit survives the
// on-disk *.expr.json envelope segment for segment — the persistence
// path the refit-piecewise registry entry rides.
func TestCachePiecewiseExpressionRoundTrip(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := fit.Expression{
		Startup: fit.Form{Kind: fit.Log, A: 55, B: 30},
		PerByte: fit.Form{Kind: fit.Linear, A: 0.014, B: 0.053},
		Segments: []fit.Segment{
			{MMin: 4, MMax: 1024,
				Startup: fit.Form{Kind: fit.Log, A: 54, B: 31},
				PerByte: fit.Form{Kind: fit.Linear, A: 0.002, B: 0.01}},
			{MMin: 1024, MMax: 65536,
				Startup: fit.Form{Kind: fit.Log, A: 80, B: 120},
				PerByte: fit.Form{Kind: fit.Linear, A: 0.016, B: -0.004}},
		},
	}
	if err := cache.PutExpression("cafe", "T3D/broadcast piecewise", e); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.GetExpression("cafe")
	if !ok || !reflect.DeepEqual(got, e) {
		t.Fatalf("piecewise expression drifted through the cache:\n  put %+v\n  got %+v", e, got)
	}
	if !got.IsPiecewise() {
		t.Fatal("segments lost in persistence")
	}
	// An affine expression must come back with no segments at all (nil,
	// not empty), keeping pre-piecewise JSON byte-compatible.
	affine := fit.Expression{Startup: fit.Form{Kind: fit.Linear, A: 24, B: 90}}
	if err := cache.PutExpression("beef", "affine", affine); err != nil {
		t.Fatal(err)
	}
	if got, _ := cache.GetExpression("beef"); got.Segments != nil {
		t.Fatalf("affine expression grew segments: %+v", got)
	}
}

func TestCacheExpressionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := fit.Expression{
		Startup: fit.Form{Kind: fit.Log, A: 55, B: 30},
		PerByte: fit.Form{Kind: fit.Linear, A: 0.014, B: 0.053},
	}
	if err := cache.PutExpression("feedbead", "SP2/broadcast", e); err != nil {
		t.Fatal(err)
	}
	if got, ok := cache.GetExpression("feedbead"); !ok || !reflect.DeepEqual(got, e) {
		t.Fatalf("GetExpression = %+v, %v; want stored expression", got, ok)
	}
	// Expressions and samples live in separate namespaces: an
	// expression must not satisfy a sample lookup under the same key.
	if got := cache.lookup([]string{"feedbead"}); len(got) != 0 {
		t.Fatal("expression entry served as a sample")
	}
	if err := os.WriteFile(filepath.Join(dir, "feedbead.expr.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.GetExpression("feedbead"); ok {
		t.Fatal("corrupt expression served as a hit")
	}
	var nilCache *Cache
	if _, ok := nilCache.GetExpression("k"); ok {
		t.Fatal("nil cache expression hit")
	}
	if err := nilCache.PutExpression("k", "id", e); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerAnalyticMatchesModel checks the analytic backend rides the
// runner unchanged: every result equals the closed-form prediction and
// the artifacts stay byte-identical across worker counts.
func TestRunnerAnalyticMatchesModel(t *testing.T) {
	sp := Spec{
		Machines: []string{"SP2", "T3D"},
		Ops:      []machine.Op{machine.OpBarrier, machine.OpAlltoall},
		Sizes:    []int{4, 16}, Lengths: []int{4, 4096},
		Config: tinyCfg,
	}
	scns, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	backend := estimate.PaperAnalytic()
	serial := (&Runner{Workers: 1, Backend: backend}).Run(scns)
	parallel := (&Runner{Workers: 8, Backend: backend}).Run(scns)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("analytic results differ between 1 and 8 workers")
	}
	pr := backend.Predictor()
	for _, r := range serial {
		want := pr.Time(r.Scenario.Machine, r.Scenario.Op, r.Scenario.M, r.Scenario.P)
		if r.Sample.Micros != want {
			t.Fatalf("%s: %v, model says %v", r.Scenario.ID(), r.Sample.Micros, want)
		}
	}
}

// TestCacheIgnoresCorruptEntries: a truncated segment, a garbage
// segment, a well-formed line carrying another key, and a per-key
// sample file of the older layout never serve a sample for the wanted
// key, while intact segments in the same directory still hit.
func TestCacheIgnoresCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := measure.Sample{Machine: "SP2", Op: machine.OpBroadcast, P: 4, M: 64, Micros: 12.5}
	if err := cache.putSegment([]entry{{Key: "intact", ID: "id", Sample: s}}); err != nil {
		t.Fatal(err)
	}
	if got := cache.lookup([]string{"intact"}); len(got) != 1 || got["intact"] != s {
		t.Fatalf("lookup = %+v; want the stored sample", got)
	}

	wanted := segmentBytes(t, entry{Key: "deadbeef", ID: "id", Sample: s})
	garbage := append([]byte("{not json\n\x00\xff\n"), bytes.TrimSuffix(wanted, []byte("\n"))...)
	garbage = append(garbage, " trailing\n"...)
	corrupt := map[string][]byte{
		// The line carrying the wanted key loses its tail.
		"truncated": wanted[:len(wanted)/2],
		// Garbage, then the wanted key's line with bytes appended.
		"garbage": garbage,
		// A well-formed line under another key, in a segment named
		// for the wanted one.
		"cafebabe": segmentBytes(t, entry{Key: "feedface", ID: "id", Sample: s}),
	}
	for name, data := range corrupt {
		if err := os.WriteFile(filepath.Join(dir, name+segSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A per-key sample file of the older layout is not a segment.
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.json"), wanted, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := cache.lookup([]string{"deadbeef", "cafebabe"}); len(got) != 0 {
		t.Fatalf("corrupt, mismatched or per-key entries served as hits: %+v", got)
	}
	// Intact segments beside them still hit.
	got := cache.lookup([]string{"deadbeef", "intact", "feedface"})
	if len(got) != 2 || got["intact"] != s || got["feedface"] != s {
		t.Fatalf("lookup = %+v; want only the intact segments' samples", got)
	}
}

// segmentBytes returns the segment putSegment writes for entries.
func segmentBytes(t *testing.T, entries ...entry) []byte {
	t.Helper()
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.putSegment(entries); err != nil {
		t.Fatal(err)
	}
	names := dirNames(t, dir)
	if len(names) != 1 || !strings.HasSuffix(names[0], segSuffix) {
		t.Fatalf("one put left %v, want one segment", names)
	}
	data, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestNilCacheIsNoOp(t *testing.T) {
	c, err := OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	if c != nil {
		t.Fatal("empty dir should disable caching")
	}
	if got := c.lookup([]string{"k"}); len(got) != 0 {
		t.Fatal("nil cache hit")
	}
	if err := c.putSegment([]entry{{Key: "k", ID: "id"}}); err != nil {
		t.Fatal(err)
	}
}

func TestBestAlgorithmsAndWinCounts(t *testing.T) {
	mk := func(alg string, p, m int, micros float64) Result {
		return Result{
			Scenario: Scenario{Machine: "SP2", Op: machine.OpAlltoall, Algorithm: alg, P: p, M: m},
			Sample:   measure.Sample{Micros: micros},
		}
	}
	results := []Result{
		mk("pairwise", 4, 64, 10), mk("bruck", 4, 64, 8),
		mk("pairwise", 8, 64, 20), mk("bruck", 8, 64, 30),
		mk("pairwise", 16, 64, 5), // single variant: no decision
	}
	ds := BestAlgorithms(results)
	if len(ds) != 2 {
		t.Fatalf("got %d decisions, want 2", len(ds))
	}
	if ds[0].Best != "bruck" || ds[0].RunnerUp != "pairwise" || ds[0].Margin() != 10.0/8 {
		t.Fatalf("p=4 decision wrong: %+v", ds[0])
	}
	if ds[1].Best != "pairwise" || ds[1].RunnerUpMicros != 30 {
		t.Fatalf("p=8 decision wrong: %+v", ds[1])
	}
	wc := WinCounts(ds)
	if len(wc) != 2 || wc[0].Wins != 1 || wc[0].Points != 2 {
		t.Fatalf("win counts wrong: %+v", wc)
	}
}

func TestPairAndValidationReport(t *testing.T) {
	mk := func(op machine.Op, p, m int, micros float64) Result {
		return Result{
			Scenario: Scenario{Machine: "SP2", Op: op, Algorithm: DefaultAlgorithm, P: p, M: m},
			Sample:   measure.Sample{Micros: micros},
		}
	}
	ref := []Result{
		mk(machine.OpBroadcast, 8, 4, 100),
		mk(machine.OpBroadcast, 8, 1024, 200),
		mk(machine.OpBarrier, 8, 0, 50),
	}
	est := []Result{
		mk(machine.OpBroadcast, 8, 4, 110), // 10% high
		mk(machine.OpBroadcast, 8, 1024, 190),
		mk(machine.OpBarrier, 8, 0, 50), // exact
	}
	pairs, err := Pair(ref, est)
	if err != nil {
		t.Fatal(err)
	}
	errs := RelErrors(pairs)
	want := []float64{0.1, 0.05, 0}
	for i, e := range errs {
		if d := e - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("rel errors %v, want %v", errs, want)
		}
	}
	var b bytes.Buffer
	if err := WriteValidation(&b, "t", pairs, &ValidationTiming{
		Backend: "calibrated", RefSeconds: 10, EstSeconds: 10, WarmSeconds: 0.01,
	}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, needle := range []string{"| 3 | 5.00% |", "1000×", "| SP2 | broadcast |", "m=1024"} {
		if !bytes.Contains(b.Bytes(), []byte(needle)) {
			t.Fatalf("report missing %q:\n%s", needle, out)
		}
	}

	// Pairing rejects mismatched runs.
	if _, err := Pair(ref, est[:2]); err == nil {
		t.Fatal("Pair accepted mismatched lengths")
	}
	swapped := []Result{est[1], est[0], est[2]}
	if _, err := Pair(ref, swapped); err == nil {
		t.Fatal("Pair accepted scenario mismatch")
	}
}

func TestToDatasetPreservesGridOrder(t *testing.T) {
	scns := []Scenario{
		{Machine: "SP2", Op: machine.OpBroadcast, P: 2, M: 4},
		{Machine: "SP2", Op: machine.OpBroadcast, P: 2, M: 16},
		{Machine: "SP2", Op: machine.OpBroadcast, P: 4, M: 4},
	}
	var results []Result
	for i, sc := range scns {
		results = append(results, Result{Scenario: sc, Sample: measure.Sample{Micros: float64(i + 1)}})
	}
	d := ToDataset(results)
	if len(d.Points) != 3 {
		t.Fatalf("got %d points", len(d.Points))
	}
	if v, ok := d.At(4, 4); !ok || v != 3 {
		t.Fatalf("At(4,4) = %v, %v", v, ok)
	}
}
