package estimate

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/paper"
)

// BackendCalibrated names the measure-then-model backend.
const BackendCalibrated = "calibrated"

// calibrationVersion is baked into expression keys and the backend
// provenance; bump it when the calibration procedure changes in a way
// the key fields do not capture. v2: keys carry the planner
// configuration (the adaptive planner changes which grid cells feed a
// fit). v3: keys carry the fit family (affine vs. piecewise), so every
// pre-piecewise *.expr.json entry self-invalidates and a piecewise
// backend can never serve an affine fit or vice versa. The planner has
// since been removed; its key member stays as a fixed zero (see
// procedureKey), so v3 keys are unchanged.
const calibrationVersion = 3

// defaultAlg is the algorithm alias meaning "the machine's vendor table
// entry" (sweep.DefaultAlgorithm; spelled out here to avoid an import
// cycle). Triples calibrate under their resolved name, so the alias and
// its eponymous variant share one calibration.
const defaultAlg = "default"

// ExpressionStore persists fitted expressions under content keys, so a
// calibration survives across processes. *sweep.Cache implements it;
// a nil store just refits per process.
type ExpressionStore interface {
	// GetExpression returns the stored expression for key, if present
	// and intact.
	GetExpression(key string) (fit.Expression, bool)
	// PutExpression stores an expression under key; id is a
	// human-readable label for cache inspection.
	PutExpression(key, id string, e fit.Expression) error
}

// FitConfig selects the expression family a triple's calibration fits.
// The zero value fits the paper's affine model (fit.TwoStage); enabling
// Piecewise fits protocol-aware segments (fit.Piecewise) instead, which
// closes the affine model's mid-length error gap. The configuration is
// part of the backend's provenance and of every expression key.
type FitConfig struct {
	// Piecewise, when true, fits K ≥ 1 affine segments per triple with
	// breakpoints detected by the consecutive-refit-delta probe and K
	// chosen by grid-validated error (see fit.Piecewise); K = 1 degrades
	// to the affine fit, so each triple individually keeps the simpler
	// model when it already fits.
	Piecewise bool
}

// procedureKey is the calibration procedure's share of the provenance
// and expression-key JSON, in the fixed shape those keys have had since
// calibrationVersion 3. The "planner" member is always zero — every
// calibration measures the full grid — and "fit" records the family
// plus fit.Piecewise's tolerance; both keep their old members so that
// persisted sweep caches, expression files and error tables keep their
// keys.
type procedureKey struct {
	Planner struct {
		Adaptive   bool    `json:"adaptive"`
		RelTol     float64 `json:"rel_tol"`
		MinLengths int     `json:"min_lengths"`
	} `json:"planner"`
	Fit struct {
		Piecewise   bool    `json:"piecewise"`
		MaxSegments int     `json:"max_segments"`
		RelTol      float64 `json:"rel_tol"`
	} `json:"fit"`
}

func (fc FitConfig) key() procedureKey {
	var k procedureKey
	if fc.Piecewise {
		k.Fit.Piecewise, k.Fit.RelTol = true, fit.PiecewiseTol
	}
	return k
}

// Calibrated is the measure-then-model backend: on the first request
// for a (machine, op, algorithm) triple it runs a small seeded sim
// sweep over the calibration grid, fits a Table 3-style expression with
// fit.TwoStage, persists it through Store (when set), and from then on
// serves that triple in closed form at analytic speed. Unlike Analytic
// it distinguishes registry algorithm variants, because each variant is
// calibrated separately; the "default" alias resolves to the vendor
// table entry and shares its calibration.
//
// The zero value calibrates over the paper's grid with the fast
// methodology, one triple at a time on demand. Precalibrate fits many
// triples up front through a bounded worker pool. Fields must not be
// mutated after the first Estimate call; Estimate itself is safe for
// concurrent use.
type Calibrated struct {
	// Config is the calibration methodology; the zero value means
	// measure.Fast().
	Config measure.Config
	// Sizes are the calibration machine sizes (capped per machine);
	// nil means paper.MachineSizes. Matching the evaluation grid's
	// sizes makes the startup fit exact at those sizes.
	Sizes []int
	// Lengths are the calibration message lengths; nil means
	// paper.MessageLengths. Barriers always calibrate at length 0.
	Lengths []int
	// Fit selects the expression family fitted per triple; the zero
	// value is the paper's affine model.
	Fit FitConfig
	// Store, when non-nil, persists fitted expressions across
	// processes under content keys.
	Store ExpressionStore
	// Memo, when non-nil, dedups the calibration's individual
	// measurements with any other memo user (e.g. a Sim backend in the
	// same validation run).
	Memo *SampleMemo
	// Workers bounds Precalibrate's default pool; ≤ 0 means
	// runtime.GOMAXPROCS.
	Workers int
	// StoreHits and Refits count calibrations served from the expression
	// store vs fitted fresh (obs wiring; nil = uncounted). Set them
	// before the first Estimate call, like every other field.
	StoreHits, Refits *obs.Counter

	mu     sync.Mutex
	cal    map[calTriple]*calEntry
	ranges map[rangeKey]Range // Range, memoized: the grid is fixed after first use
}

type rangeKey struct {
	mach string
	op   machine.Op
}

type calTriple struct {
	mach string
	op   machine.Op
	alg  string // always a resolved (non-alias) name
}

type calEntry struct {
	once  sync.Once
	expr  fit.Expression
	ready atomic.Bool // expr is set; Precalibrate's warm check reads it
}

// Triple identifies one calibration unit for Precalibrate. Alg may be
// the "default" alias or empty for the vendor table entry.
type Triple struct {
	Machine *machine.Machine
	Op      machine.Op
	Alg     string
}

// Name returns "calibrated".
func (*Calibrated) Name() string { return BackendCalibrated }

// Provenance hashes the calibration spec (grid, methodology and fit
// family), so sweep-cache entries derived from one calibration never
// serve another.
func (c *Calibrated) Provenance() string {
	blob, err := json.Marshal(struct {
		V       int            `json:"v"`
		Sizes   []int          `json:"sizes"`
		Lengths []int          `json:"lengths"`
		Config  measure.Config `json:"config"`
		procedureKey
	}{calibrationVersion, c.Sizes, c.Lengths, c.config(), c.Fit.key()})
	if err != nil {
		panic(fmt.Sprintf("estimate: calibrated provenance: %v", err))
	}
	return hashJSON(blob)
}

// Estimate serves (op, algs, p, m) on mach from the triple's fitted
// expression, calibrating it first if this is the triple's first use.
// ctx is deliberately ignored: a calibration is a shared once-per-triple
// computation (calEntry.once), and letting one request's deadline abort
// it would poison the entry for every later request sharing the triple.
// The error is always nil.
func (c *Calibrated) Estimate(_ context.Context, mach *machine.Machine, op machine.Op, algs mpi.Algorithms, p, m int, _ measure.Config) (Estimate, error) {
	e := c.Expression(mach, op, algs.Get(op))
	// Predict clamps small negative fitted per-byte terms (non-physical
	// outside the calibrated range) and dispatches piecewise fits to the
	// segment covering m, exactly like model.Predictor.Time.
	t := e.Predict(m, p)
	return closedForm(BackendCalibrated, mach.Name(), op, p, m, t), nil
}

// Expression returns the fitted expression for one (machine, op,
// algorithm) triple, calibrating or loading it on first use. The
// "default" alias (or an empty name) resolves to the machine's vendor
// table entry, sharing that variant's calibration.
func (c *Calibrated) Expression(mach *machine.Machine, op machine.Op, alg string) fit.Expression {
	k := Triple{mach, op, alg}.key()
	c.mu.Lock()
	if c.cal == nil {
		c.cal = map[calTriple]*calEntry{}
	}
	entry, ok := c.cal[k]
	if !ok {
		entry = &calEntry{}
		c.cal[k] = entry
	}
	c.mu.Unlock()
	entry.once.Do(func() {
		entry.expr = c.calibrate(mach, op, k.alg)
		entry.ready.Store(true)
	})
	return entry.expr
}

// Precalibrate fits every distinct triple (after default-alias
// resolution) through a bounded worker pool, so a sweep's cold
// calibration runs concurrently instead of triple by triple on first
// touch. workers ≤ 0 uses c.Workers, then GOMAXPROCS. Safe to call
// repeatedly: when every triple is already fitted — the warm serving
// path, once per batched request — it returns without building a pool.
func (c *Calibrated) Precalibrate(triples []Triple, workers int) {
	if c.fitted(triples) {
		return
	}
	seen := map[calTriple]bool{}
	work := make([]Triple, 0, len(triples))
	for _, tr := range triples {
		k := tr.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		work = append(work, Triple{tr.Machine, tr.Op, k.alg})
	}
	if workers <= 0 {
		workers = c.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}
	if workers <= 1 {
		for _, tr := range work {
			c.Expression(tr.Machine, tr.Op, tr.Alg)
		}
		return
	}
	jobs := make(chan Triple, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tr := range jobs {
				c.Expression(tr.Machine, tr.Op, tr.Alg)
			}
		}()
	}
	for _, tr := range work {
		jobs <- tr
	}
	close(jobs)
	wg.Wait()
}

// fitted reports whether every triple's expression already exists.
func (c *Calibrated) fitted(triples []Triple) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tr := range triples {
		if e, ok := c.cal[tr.key()]; !ok || !e.ready.Load() {
			return false
		}
	}
	return true
}

// key is the triple's calibration unit, the default alias resolved.
func (tr Triple) key() calTriple {
	alg := tr.Alg
	if alg == "" || alg == defaultAlg {
		alg = mpi.DefaultAlgorithms(tr.Machine).Get(tr.Op)
	}
	return calTriple{tr.Machine.Name(), tr.Op, alg}
}

// Predictor calibrates every (machine, op) with the vendor-default
// algorithm table and returns an analytic predictor over the fits —
// the regenerated-Table 3 counterpart of model.FromPaper. Calibration
// runs through the Precalibrate pool.
func (c *Calibrated) Predictor(machines []*machine.Machine, ops []machine.Op) *model.Predictor {
	var triples []Triple
	for _, mach := range machines {
		for _, op := range ops {
			triples = append(triples, Triple{mach, op, defaultAlg})
		}
	}
	c.Precalibrate(triples, 0)
	exprs := map[string]map[machine.Op]fit.Expression{}
	for _, mach := range machines {
		algs := mpi.DefaultAlgorithms(mach)
		row := map[machine.Op]fit.Expression{}
		for _, op := range ops {
			row[op] = c.Expression(mach, op, algs.Get(op))
		}
		exprs[mach.Name()] = row
	}
	return model.New(exprs)
}

// Range returns the calibrated (p, m) envelope for one (machine, op) —
// the grid rectangle the triple's fits interpolate. ok is always true:
// the calibrated backend covers every registered operation. The
// signature matches Entry.Ranges so a registry entry can use the method
// value directly.
func (c *Calibrated) Range(mach *machine.Machine, op machine.Op) (Range, bool) {
	k := rangeKey{mach.Name(), op}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.ranges[k]
	if !ok {
		r = envelope(c.sizesFor(mach), c.lengthsFor(op))
		if c.ranges == nil {
			c.ranges = map[rangeKey]Range{}
		}
		c.ranges[k] = r
	}
	return r, true
}

// calibrate runs the triple's calibration sweep (or loads a stored fit)
// and returns the expression. alg is already resolved.
func (c *Calibrated) calibrate(mach *machine.Machine, op machine.Op, alg string) fit.Expression {
	sizes := c.sizesFor(mach)
	lengths := c.lengthsFor(op)
	cfg := c.config()

	var key string
	if c.Store != nil {
		key = expressionKey(mach, op, alg, sizes, lengths, cfg, c.Fit)
		if e, ok := c.Store.GetExpression(key); ok {
			c.StoreHits.Inc()
			return e
		}
	}
	algs := mpi.DefaultAlgorithms(mach).With(op, alg)
	d := c.Memo.Dataset(mach, op, algs, sizes, lengths, cfg)
	startupShape := paper.StartupShape(op)
	perByteShape := paper.PerByteShape(mach.Name(), op)
	var e fit.Expression
	if c.Fit.Piecewise {
		e = fit.Piecewise(d, startupShape, perByteShape)
	} else {
		e = fit.TwoStage(d, startupShape, perByteShape)
	}
	c.Refits.Inc()
	if c.Store != nil {
		id := fmt.Sprintf("%s/%s[%s] calibration", mach.Name(), op, alg)
		_ = c.Store.PutExpression(key, id, e) // best-effort, like sample caching
	}
	return e
}

func (c *Calibrated) config() measure.Config {
	if c.Config == (measure.Config{}) {
		return measure.Fast()
	}
	return c.Config
}

func (c *Calibrated) sizesFor(mach *machine.Machine) []int {
	sizes := c.Sizes
	if len(sizes) == 0 {
		sizes = paper.MachineSizes(mach.Name())
	}
	out := make([]int, 0, len(sizes))
	for _, p := range sizes {
		if p >= 2 && p <= mach.MaxNodes() {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		panic(fmt.Sprintf("estimate: no calibration sizes within 2..%d for %s",
			mach.MaxNodes(), mach.Name()))
	}
	return out
}

// lengthsFor returns the calibration lengths for op, sorted ascending
// and deduplicated: the fit is order-independent, but the canonical
// expression key relies on the normalized order.
func (c *Calibrated) lengthsFor(op machine.Op) []int {
	if op == machine.OpBarrier {
		return []int{0}
	}
	if len(c.Lengths) == 0 {
		return paper.MessageLengths()
	}
	lengths := append([]int(nil), c.Lengths...)
	sort.Ints(lengths)
	out := lengths[:0]
	for i, m := range lengths {
		if i == 0 || m != lengths[i-1] {
			out = append(out, m)
		}
	}
	return out
}

// expressionKey is the content key of one triple's fit: identical
// calibration inputs — machine constants, operation, resolved
// algorithm, grid, methodology, fit family — always produce the same
// key, and any drift produces a different one.
func expressionKey(mach *machine.Machine, op machine.Op, alg string, sizes, lengths []int, cfg measure.Config, fc FitConfig) string {
	blob, err := json.Marshal(struct {
		V           int            `json:"v"`
		Calibration string         `json:"calibration"`
		Op          machine.Op     `json:"op"`
		Alg         string         `json:"alg"`
		Sizes       []int          `json:"sizes"`
		Lengths     []int          `json:"lengths"`
		Config      measure.Config `json:"config"`
		procedureKey
	}{calibrationVersion, Fingerprint(mach), op, alg, sizes, lengths, cfg, fc.key()})
	if err != nil {
		panic(fmt.Sprintf("estimate: expression key %s/%s[%s]: %v", mach.Name(), op, alg, err))
	}
	return hashJSON(blob)
}
