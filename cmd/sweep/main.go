// Command sweep runs a user-defined scenario grid — machines ×
// operations × algorithm variants × machine sizes × message lengths —
// through the sharded sweep engine and emits markdown and CSV reports.
//
// The grid can be answered by any estimation backend:
//
//	-backend sim         the discrete-event simulator (slow, exact; default)
//	-backend analytic    the paper's Table 3 expressions in closed form (instant)
//	-backend calibrated  expressions fitted from a seeded sim sweep, then
//	                     served in closed form (measure once, predict forever)
//
// The default grid covers all three machines, the paper's seven
// operations, every registered algorithm variant, the paper's
// factor-of-four message lengths, and two machine sizes: several
// hundred scenarios, sharded across all CPU cores. A content-keyed
// cache makes repeated runs near-instant and survives preset edits and
// backend switches (stale entries simply stop matching); it also
// persists the calibrated backend's fitted expressions.
//
// Usage:
//
//	sweep                                    # default grid, report to stdout
//	sweep -cache .sweepcache                 # warm runs are near-instant
//	sweep -backend calibrated -cache .sweepcache
//	sweep -validate                          # sim vs calibrated error report
//	sweep -validate -piecewise               # protocol-aware piecewise fits
//	sweep -machines SP2,T3D -ops alltoall -algs all -p 8,32,64
//	sweep -algs default -p 2,4,8,16,32,64,128 -out grid.md -csv grid.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// main delegates to run so deferred cleanups — most importantly
// stopping the CPU profile and snapshotting the heap profile — fire on
// every exit path, not just success.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		machines   = flag.String("machines", "", "comma-separated machine presets (default: all)")
		ops        = flag.String("ops", "", "comma-separated operations (default: the paper's seven)")
		algs       = flag.String("algs", "all", `algorithm variants: "all", "default", or a comma-separated list`)
		sizesF     = flag.String("p", "8,32", "comma-separated machine sizes")
		lengthsF   = flag.String("m", "", "comma-separated message lengths in bytes (default: the paper's sweep)")
		backendF   = flag.String("backend", "sim", "estimation backend: sim, analytic, or calibrated")
		validate   = flag.Bool("validate", false, "run sim and the -backend estimator side by side and report relative errors (sim -backend implies calibrated)")
		workers    = flag.Int("workers", 0, "worker shards (0 = all cores); also bounds the calibration pool")
		cacheDir   = flag.String("cache", "", "directory for the content-keyed result and expression cache")
		outPath    = flag.String("out", "-", `markdown report path ("-" = stdout)`)
		csvPath    = flag.String("csv", "", "also write per-scenario CSV here")
		seed       = flag.Int64("seed", 1, "base simulation seed")
		derive     = flag.Bool("derive-seeds", false, "give every scenario its own deterministic seed")
		paperCfg   = flag.Bool("paper", false, "paper-faithful methodology (warm-up 2, k=20, 5 reps; slow)")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		piecewise  = flag.Bool("piecewise", false, "calibrated backend: fit protocol-aware piecewise segments per triple instead of one affine model (closes the mid-length error gap; cache keys carry the fit family)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the sweep here")
		memProfile = flag.String("memprofile", "", "write a heap profile (taken after the sweep) here")
		obsF       = flag.Bool("obs", false, "collect run metrics (cache outcomes, phase timings, memo and kernel counters) and print the snapshot to stderr afterwards")
	)
	flag.Parse()

	var obsReg *obs.Registry
	if *obsF {
		obsReg = newObsRegistry()
	}

	cfg := measure.Fast()
	if *paperCfg {
		cfg = measure.Paper()
	}
	cfg.Seed = *seed

	spec := sweep.Spec{
		Machines:    splitList(*machines),
		Ops:         parseOps(*ops),
		Sizes:       parseInts(*sizesF, "p"),
		Lengths:     parseInts(*lengthsF, "m"),
		Config:      cfg,
		DeriveSeeds: *derive,
	}
	specOps := spec.Ops
	if len(specOps) == 0 {
		specOps = machine.Ops
	}
	switch *algs {
	case "default":
	case "all", "":
		spec.Algorithms = sweep.AllAlgorithms(specOps)
	default:
		spec.Algorithms = map[machine.Op][]string{}
		for _, op := range specOps {
			spec.Algorithms[op] = splitList(*algs)
		}
	}

	// Profiles bracket the actual sweep work (parsing is already done);
	// the deferred stop/snapshot runs on every run() exit path.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
			}
		}()
	}

	scns, err := spec.Expand()
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // already "sweep:"-prefixed
		return 2
	}
	if len(scns) == 0 {
		fmt.Fprintln(os.Stderr, "sweep: the spec expands to zero scenarios")
		return 2
	}
	cache, err := sweep.OpenCache(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 1
	}

	fitCfg := estimate.FitConfig{Piecewise: *piecewise}

	if *validate {
		code := runValidate(scns, spec, *backendF, fitCfg, cache, *workers, *outPath, *csvPath, *quiet, obsReg)
		dumpObs(obsReg)
		return code
	}

	memo := estimate.NewSampleMemo()
	backend, err := buildBackend(*backendF, spec, cfg, fitCfg, cache, memo, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 2
	}
	if obsReg != nil {
		instrumentBackend(obsReg, memo, backend)
	}
	if err := checkAnalyticCoverage(backend, scns); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 2
	}

	start := time.Now()
	runner := &sweep.Runner{Workers: *workers, Cache: cache, Backend: backend, Metrics: newSweepMetrics(obsReg)}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sweep: %d scenarios via the %s backend\n", len(scns), backend.Name())
		runner.OnProgress = progressPrinter(len(scns), start)
	}
	results := runner.Run(scns)
	cached := 0
	for _, r := range results {
		if r.Cached {
			cached++
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sweep: %d scenarios (%d cached) in %s\n",
			len(results), cached, time.Since(start).Round(time.Millisecond))
	}

	title := fmt.Sprintf("Scenario sweep — %d scenarios (%s backend)", len(results), backend.Name())
	if err := emitTo(*outPath, func(w io.Writer) error {
		return sweep.WriteMarkdown(w, title, results)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 1
	}
	if *csvPath != "" {
		if err := emitTo(*csvPath, func(w io.Writer) error {
			return sweep.WriteCSV(w, results)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			return 1
		}
	}
	dumpObs(obsReg)
	return 0
}

// newObsRegistry assembles the -obs metric registry: the sweep and
// estimation series register themselves as they are wired; the sim
// kernel's process-wide totals are read at export time.
func newObsRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	sim.EnableCounters(true)
	reg.CounterFunc("sim_kernel_events_total",
		"discrete events executed by simulation kernels, process-wide", sim.KernelEvents)
	reg.CounterFunc("sim_kernel_wakeups_total",
		"process wakeups scheduled by simulation kernels, process-wide", sim.KernelWakeups)
	return reg
}

// newSweepMetrics registers the runner series, or nothing without -obs.
func newSweepMetrics(reg *obs.Registry) *sweep.Metrics {
	if reg == nil {
		return nil
	}
	return sweep.NewMetrics(reg)
}

// instrumentBackend wires the estimation-layer series: the memo always,
// the expression-store counters when the backend calibrates.
func instrumentBackend(reg *obs.Registry, memo *estimate.SampleMemo, b estimate.Backend) {
	if c, ok := b.(*estimate.Calibrated); ok {
		estimate.Instrument(reg, memo, c)
		return
	}
	estimate.Instrument(reg, memo)
}

// dumpObs prints the -obs snapshot in the Prometheus text format; a nil
// registry (no -obs) prints nothing.
func dumpObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "sweep: metrics snapshot:")
	if err := reg.WritePrometheus(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
	}
}

// runValidate executes the grid under sim and a closed-form backend and
// emits the relative-error validation report (plus, with -csv, the
// per-scenario rows of both passes, distinguished by the backend
// column). It returns the process exit code.
func runValidate(scns []sweep.Scenario, spec sweep.Spec, backendName string, fitCfg estimate.FitConfig, cache *sweep.Cache, workers int, outPath, csvPath string, quiet bool, obsReg *obs.Registry) int {
	if backendName == "sim" || backendName == "" {
		backendName = "calibrated" // validating sim against itself is vacuous
	}
	// One memo across both passes: the sim pass and a calibrated
	// backend's calibration sweep measure many identical cells, so each
	// is simulated once.
	memo := estimate.NewSampleMemo()
	candidate, err := buildBackend(backendName, spec, scnConfig(scns, spec), fitCfg, cache, memo, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 2
	}
	if err := checkAnalyticCoverage(candidate, scns); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 2
	}
	if obsReg != nil {
		instrumentBackend(obsReg, memo, candidate)
	}
	metrics := newSweepMetrics(obsReg)

	progress := func(string) func(sweep.Progress) { return nil }
	if !quiet {
		progress = func(pass string) func(sweep.Progress) {
			fmt.Fprintf(os.Stderr, "sweep: validate: %s pass over %d scenarios\n", pass, len(scns))
			return progressPrinter(len(scns), time.Now())
		}
	}

	simStart := time.Now()
	simResults := (&sweep.Runner{Workers: workers, Cache: cache, Backend: estimate.Sim{Memo: memo},
		OnProgress: progress("sim"), Metrics: metrics}).Run(scns)
	simSecs := time.Since(simStart).Seconds()

	estStart := time.Now()
	estResults := (&sweep.Runner{Workers: workers, Cache: cache, Backend: candidate,
		OnProgress: progress(candidate.Name()), Metrics: metrics}).Run(scns)
	estSecs := time.Since(estStart).Seconds()

	// A second pass with the calibration already in memory is the
	// serving-speed number the calibrated backend exists for.
	warmStart := time.Now()
	(&sweep.Runner{Workers: workers, Backend: candidate, Metrics: metrics}).Run(scns)
	warmSecs := time.Since(warmStart).Seconds()

	pairs, err := sweep.Pair(simResults, estResults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 1
	}
	// Persist the per-(machine, op, m) error table next to the fits it
	// validates, so the serving layer can attach expected-error bounds
	// without re-sweeping (sweep.AttachBounds finds it by content key).
	if cache != nil {
		table := sweep.BuildErrorTable(candidate, pairs)
		id := fmt.Sprintf("%s error table (%d cells)", candidate.Name(), len(table.Cells))
		if err := cache.PutErrorTable(estimate.ErrorTableKey(candidate), id, table); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
		} else if !quiet {
			fmt.Fprintf(os.Stderr, "sweep: validate: persisted %d-cell error table for the %s backend\n",
				len(table.Cells), candidate.Name())
		}
	}
	timing := &sweep.ValidationTiming{
		Backend:    candidate.Name(),
		RefSeconds: simSecs, EstSeconds: estSecs, WarmSeconds: warmSecs,
		RefCached: countCached(simResults), EstCached: countCached(estResults),
	}
	title := fmt.Sprintf("Validation — %s vs sim over %d scenarios", candidate.Name(), len(scns))
	if err := emitTo(outPath, func(w io.Writer) error {
		return sweep.WriteValidation(w, title, pairs, timing)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 1
	}
	if csvPath != "" {
		both := append(append([]sweep.Result(nil), simResults...), estResults...)
		if err := emitTo(csvPath, func(w io.Writer) error {
			return sweep.WriteCSV(w, both)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			return 1
		}
	}
	return 0
}

func countCached(results []sweep.Result) int {
	n := 0
	for _, r := range results {
		if r.Cached {
			n++
		}
	}
	return n
}

// buildBackend constructs the named estimation backend. The calibrated
// backend calibrates over the grid's own sizes, lengths, and
// methodology, so its fits interpolate exactly where they are asked;
// memo and workers feed its measurement dedup and calibration pool,
// and fitCfg selects the expression family (affine vs. piecewise).
// Only the calibrated backend fits anything, so a piecewise fitCfg with
// any other backend is an error rather than a silently ignored flag.
func buildBackend(name string, spec sweep.Spec, cfg measure.Config, fitCfg estimate.FitConfig, cache *sweep.Cache, memo *estimate.SampleMemo, workers int) (estimate.Backend, error) {
	if fitCfg.Piecewise && name != "calibrated" {
		return nil, fmt.Errorf("-piecewise needs the calibrated backend (-backend calibrated, or -validate with -backend sim), not %q", name)
	}
	switch name {
	case "sim", "":
		return estimate.Sim{Memo: memo}, nil
	case "analytic":
		return estimate.PaperAnalytic(), nil
	case "calibrated":
		c := &estimate.Calibrated{
			Config: cfg, Sizes: spec.Sizes, Lengths: spec.Lengths,
			Fit: fitCfg, Memo: memo, Workers: workers,
		}
		if cache != nil {
			c.Store = cache
		}
		return c, nil
	default:
		return nil, fmt.Errorf("unknown backend %q (want sim, analytic, or calibrated)", name)
	}
}

// scnConfig returns the methodology the scenarios run under (the
// spec's, unless expansion defaulted it).
func scnConfig(scns []sweep.Scenario, spec sweep.Spec) measure.Config {
	if spec.Config != (measure.Config{}) {
		return spec.Config
	}
	return scns[0].Config
}

// checkAnalyticCoverage rejects grids the paper's Table 3 cannot
// answer (e.g. allgather) before the runner panics mid-sweep.
func checkAnalyticCoverage(b estimate.Backend, scns []sweep.Scenario) error {
	a, ok := b.(*estimate.Analytic)
	if !ok {
		return nil
	}
	for _, sc := range scns {
		if !a.Covers(sc.Machine, sc.Op) {
			return fmt.Errorf("the analytic expression set has no %s/%s entry", sc.Machine, sc.Op)
		}
	}
	return nil
}

func progressPrinter(total int, start time.Time) func(sweep.Progress) {
	step := total / 20
	if step < 1 {
		step = 1
	}
	return func(p sweep.Progress) {
		if p.Done%step == 0 || p.Done == p.Total {
			fmt.Fprintf(os.Stderr, "  %d/%d (%d%%) %s\n",
				p.Done, p.Total, 100*p.Done/p.Total, time.Since(start).Round(time.Second))
		}
	}
}

// emitTo writes through fill to path, "-" meaning stdout.
func emitTo(path string, fill func(io.Writer) error) error {
	if path == "-" {
		return fill(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseOps(s string) []machine.Op {
	var out []machine.Op
	for _, name := range splitList(s) {
		out = append(out, machine.Op(name))
	}
	return out
}

func parseInts(s, what string) []int {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: bad -%s value %q\n", what, part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
