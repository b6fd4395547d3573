package estimate

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/paper"
)

// Range is a calibrated (p, m) envelope: the rectangle of machine sizes
// and message lengths an expression set was fitted over. Estimates
// inside it interpolate the fitted grid; outside it they extrapolate,
// which is where the affine model's error is unbounded — the service
// falls back to the simulator there.
type Range struct {
	PMin int `json:"p_min"`
	PMax int `json:"p_max"`
	MMin int `json:"m_min"`
	MMax int `json:"m_max"`
}

// Contains reports whether (p, m) lies inside the envelope.
func (r Range) Contains(p, m int) bool {
	return p >= r.PMin && p <= r.PMax && m >= r.MMin && m <= r.MMax
}

// String formats "p∈[8,32] m∈[4,65536]".
func (r Range) String() string {
	return fmt.Sprintf("p∈[%d,%d] m∈[%d,%d]", r.PMin, r.PMax, r.MMin, r.MMax)
}

// envelope returns the bounding Range of explicit size and length lists
// (neither assumed sorted).
func envelope(sizes, lengths []int) Range {
	r := Range{PMin: sizes[0], PMax: sizes[0], MMin: lengths[0], MMax: lengths[0]}
	for _, p := range sizes[1:] {
		r.PMin, r.PMax = min(r.PMin, p), max(r.PMax, p)
	}
	for _, m := range lengths[1:] {
		r.MMin, r.MMax = min(r.MMin, m), max(r.MMax, m)
	}
	return r
}

// Entry is one named expression set in a Registry: a backend plus the
// metadata the service needs to answer responsibly — the calibrated
// envelope (for sim fallback) and the measured error bounds (for
// error-bounded answers).
type Entry struct {
	// Name is the registry key ("paper-table3", "refit-default", ...).
	Name string
	// Description is a one-line human label for listings.
	Description string
	// Backend answers the entry's estimates.
	Backend Backend
	// Bounds, when non-nil, carries the backend's sim-validated error
	// table (sweep.AttachBounds loads it from a cache). It must be set
	// before the entry starts serving concurrent requests.
	Bounds *ErrorTable
	// Ranges reports the calibrated (p, m) envelope for one
	// (machine, op), with ok=false when the expression set has no entry
	// for the pair at all. A nil Ranges means unbounded: every request
	// is answered in closed form, never by fallback.
	Ranges func(mach *machine.Machine, op machine.Op) (Range, bool)

	ident atomic.Pointer[entryIdent]
}

// entryIdent memoizes an entry's identity strings.
type entryIdent struct {
	provenance, epoch string
}

// Provenance is the backend's provenance, computed once: a calibrated
// backend hashes its whole calibration spec per call, and the serving
// layer stamps the provenance on every response.
func (e *Entry) Provenance() string {
	return e.identity().provenance
}

// Epoch is the entry's answer-identity: backend name plus provenance,
// computed once. Everything that changes the entry's numbers — the
// calibration grid, methodology, planner, fit family, or
// calibrationVersion — changes the backend's provenance, so keying a
// per-scenario answer cache on the epoch (the way sweep-cache keys
// carry backend identity) makes recalibration self-invalidating: a
// recalibrated backend is a new epoch, and stale answers simply stop
// being found.
func (e *Entry) Epoch() string {
	return e.identity().epoch
}

// identity computes the memo on first use. Concurrent first calls may
// each compute it (the result is the same); a backend whose
// Provenance panics stores nothing, so every call keeps panicking
// rather than serving an empty identity.
func (e *Entry) identity() *entryIdent {
	if id := e.ident.Load(); id != nil {
		return id
	}
	prov := e.Backend.Provenance()
	id := &entryIdent{provenance: prov, epoch: e.Backend.Name() + "\x00" + prov}
	e.ident.Store(id)
	return id
}

// Covers reports whether (mach, op, p, m) lies inside the entry's
// calibrated envelope. The second result carries the envelope when one
// exists; reasons for !ok are either a missing expression (rng zero) or
// an out-of-range request.
func (e *Entry) Covers(mach *machine.Machine, op machine.Op, p, m int) (bool, Range) {
	if e.Ranges == nil {
		return true, Range{}
	}
	rng, ok := e.Ranges(mach, op)
	if !ok {
		return false, Range{}
	}
	return rng.Contains(p, m), rng
}

// Predictor returns the entry's expressions as an analytic predictor
// over machines × ops (calibrating them first when the backend is
// Calibrated), or ok=false when the backend has no closed-form
// expressions to export (sim).
func (e *Entry) Predictor(machines []*machine.Machine, ops []machine.Op) (*model.Predictor, bool) {
	switch b := e.Backend.(type) {
	case *Analytic:
		return b.Predictor(), true
	case *Calibrated:
		return b.Predictor(machines, ops), true
	}
	return nil, false
}

// Registry is a named collection of expression sets — the paper's
// published table, refit families, per-variant calibrations — that the
// HTTP service and the CLIs resolve by name. Register entries during
// setup; Get/Names/Entries are safe for concurrent use while serving.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*Entry{}}
}

// Register adds an entry. It errors on an empty name, a nil backend, or
// a duplicate name — registries are assembled once, so a collision is a
// configuration bug, not a hot-swap.
func (r *Registry) Register(e *Entry) error {
	if e == nil || e.Name == "" {
		return errors.New("estimate: registry entry needs a name")
	}
	if e.Backend == nil {
		return fmt.Errorf("estimate: registry entry %q needs a backend", e.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.Name]; dup {
		return fmt.Errorf("estimate: registry entry %q already registered", e.Name)
	}
	r.entries[e.Name] = e
	return nil
}

// Get resolves an entry by name, returning a typed *UnknownNameError
// listing the valid names when it does not exist.
func (r *Registry) Get(name string) (*Entry, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, &UnknownNameError{Kind: "registry", Name: name, Valid: r.Names()}
	}
	return e, nil
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Entries returns the entries sorted by name.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RegistryConfig parameterizes StandardRegistry's calibrated entries.
// The zero value works: in-memory refits over the default sweep grid.
type RegistryConfig struct {
	// Store persists calibrated fits across processes (nil refits per
	// process). *sweep.Cache implements it.
	Store ExpressionStore
	// Memo dedups simulator measurements with other memo users (the
	// service's sim fallback, a validation run).
	Memo *SampleMemo
	// Workers bounds each calibrated entry's calibration pool.
	Workers int
	// Sizes and Lengths are the calibration grid of the refit entries;
	// nil means DefaultCalibrationSizes and the paper's message lengths
	// — the same grid `cmd/sweep` calibrates by default, so fits and
	// error tables persisted by a sweep are found here by content key.
	Sizes   []int
	Lengths []int
	// Config is the calibration methodology; zero means measure.Fast().
	Config measure.Config
	// Obs, when non-nil, registers the estimation-layer metrics
	// (estimate_memo_total, estimate_expressions_total) and wires them
	// into Memo and the refit entries' backends — see Instrument.
	Obs *obs.Registry
}

// DefaultCalibrationSizes is the default sweep grid's machine sizes —
// what `cmd/sweep` calibrates with when -p is not given.
var DefaultCalibrationSizes = []int{8, 32}

// StandardRegistry assembles the stock expression-set registry shared
// by cmd/serve and cmd/predict:
//
//	paper-table3     the paper's published Table 3 (analytic, fixed)
//	refit-default    expressions recalibrated from the simulator over
//	                 the calibration grid, full measurement plan
//	refit-piecewise  protocol-aware piecewise fits over the same grid
//	                 (closes the affine model's mid-length error gap)
//
// The refit entries distinguish per-variant algorithm families — each
// (machine, op, algorithm) triple carries its own fit.
func StandardRegistry(cfg RegistryConfig) *Registry {
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = DefaultCalibrationSizes
	}
	newCalibrated := func(fc FitConfig) *Calibrated {
		return &Calibrated{
			Config: cfg.Config, Sizes: sizes, Lengths: cfg.Lengths,
			Fit: fc, Store: cfg.Store, Memo: cfg.Memo, Workers: cfg.Workers,
		}
	}
	r := NewRegistry()
	analytic := PaperAnalytic()
	full := newCalibrated(FitConfig{})
	piecewise := newCalibrated(FitConfig{Piecewise: true})
	if cfg.Obs != nil {
		Instrument(cfg.Obs, cfg.Memo, full, piecewise)
	}
	for _, e := range []*Entry{
		{
			Name:        "paper-table3",
			Description: "the paper's published Table 3 expressions (analytic, fixed)",
			Backend:     analytic,
			Ranges:      analyticRanges(analytic),
		},
		{
			Name:        "refit-default",
			Description: "expressions recalibrated from the simulator (full calibration grid)",
			Backend:     full,
			Ranges:      full.Range,
		},
		{
			Name:        "refit-piecewise",
			Description: "protocol-aware piecewise fits (affine segments per message-length regime)",
			Backend:     piecewise,
			Ranges:      piecewise.Range,
		},
	} {
		if err := r.Register(e); err != nil {
			panic(err) // static entry set; a collision is a bug here
		}
	}
	return r
}

// Instrument registers the estimation-layer metric series on reg and
// wires them into memo (when non-nil) and the given calibrated
// backends: estimate_memo_total{result="hit"|"miss"} counts sample-memo
// lookups (a miss is one distinct simulation), and
// estimate_expressions_total{source="store"|"refit"} counts
// calibrations loaded from the expression store vs fitted fresh. The
// series are shared across backends — the registry dedups by
// name+label — so wiring several backends aggregates their traffic.
func Instrument(reg *obs.Registry, memo *SampleMemo, cals ...*Calibrated) {
	memo.Instrument(
		reg.Counter("estimate_memo_total",
			"sample-memo lookups by result (a miss runs one distinct simulation)",
			obs.Label{Key: "result", Value: "hit"}),
		reg.Counter("estimate_memo_total",
			"sample-memo lookups by result (a miss runs one distinct simulation)",
			obs.Label{Key: "result", Value: "miss"}),
	)
	if len(cals) == 0 {
		return
	}
	store := reg.Counter("estimate_expressions_total",
		"triple calibrations by source: loaded from the expression store vs refit",
		obs.Label{Key: "source", Value: "store"})
	refit := reg.Counter("estimate_expressions_total",
		"triple calibrations by source: loaded from the expression store vs refit",
		obs.Label{Key: "source", Value: "refit"})
	for _, c := range cals {
		c.StoreHits, c.Refits = store, refit
	}
}

// analyticRanges bounds a fixed expression set by the paper's own
// measurement grid: the study's machine sizes and message lengths.
// Pairs missing from the set (e.g. allgather, which Table 3 never
// fitted) report ok=false, so the service answers them by simulation.
func analyticRanges(a *Analytic) func(*machine.Machine, machine.Op) (Range, bool) {
	return func(mach *machine.Machine, op machine.Op) (Range, bool) {
		if !a.Covers(mach.Name(), op) {
			return Range{}, false
		}
		lengths := paper.MessageLengths()
		if op == machine.OpBarrier {
			lengths = []int{0}
		}
		return envelope(paper.MachineSizes(mach.Name()), lengths), true
	}
}
