package serve

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/estimate"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/serve/wire"
)

// The grouped evaluator is the middle of serveEstimate, shared by all
// three codecs. Each scenario resolves to an item {group, p, m}, where a
// group is one distinct (machine, op, algorithm) triple of the request.
// Everything that depends only on the triple and the registry entry —
// name binding, the answer-cache triple id, the fallback coverage and
// variant checks, the calibrated envelope, the fitted expression and
// its bound column — is decided once per (entry, triple) and memoized
// in the entry's entryState, so a warm request only looks its groups
// up. Per scenario only checkPM, Range.Contains, the expression's
// Predict and an integer scan of the bound column run; only sim
// fallbacks go through the answer cache.

// binding is one name-resolved (machine, op, algorithm) triple,
// memoized server-wide in Server.triples and read-only once built.
type binding struct {
	// id interns the triple's answer identity — machine calibration
	// fingerprint, op, resolved algorithm — for answer-cache keys.
	id   uint64
	mach *machine.Machine
	op   machine.Op
	alg  string // "default" or a registry variant, validated
	algs mpi.Algorithms
}

// group is one triple's decisions under one registry entry. They are
// fixed once the triple is calibrated, so a group is built once per
// (entry, binding id), published in the entry's memo (entryState), and
// read-only from then on.
type group struct {
	*binding
	// kind is the triple's fixed fallback verdict (uncovered, variant)
	// with its reason; fbNone leaves the verdict to each scenario's
	// (p, m) against rng when the entry has an envelope (ranged).
	kind   fallbackKind
	reason string
	ranged bool
	rng    estimate.Range
	// The closed-form side, set by compile before the group is published
	// with kind fbNone. backend names the entry's backend. A calibrated
	// or analytic entry is direct: its scenarios are answered in place
	// from expr, the triple's fitted expression; any other backend is
	// asked through Backend.Estimate. bounds is the expected-error
	// column, one boundCol per expression segment (one for an affine
	// expression), nil when the entry's error table has no row for the
	// pair.
	backend string
	direct  bool
	expr    fit.Expression
	bounds  []boundCol
}

// reqGroup is one distinct triple of a request: its group plus the
// request's own state.
type reqGroup struct {
	*group
	// closed marks a group with a closed-form scenario in this request:
	// the triples a fresh group's calibration fits.
	closed bool
	// fresh marks a group this request built because the entry's memo
	// had none; calibrate finishes and publishes it.
	fresh bool
}

// item is one scenario of a request: its group index, fallback verdict
// and validated coordinates.
type item struct {
	g    int32
	kind fallbackKind
	p, m int
}

// newGroup decides what the entry can answer for b: a fixed expression
// set without a fit for the pair, or asked about a non-default variant
// (it models vendor-default algorithms only), falls back for every
// scenario; otherwise the entry's calibrated envelope, when it has one,
// decides per scenario.
func newGroup(entry *estimate.Entry, b *binding) *group {
	g := &group{binding: b}
	if a, ok := entry.Backend.(*estimate.Analytic); ok {
		if !a.Covers(b.mach.Name(), b.op) {
			return g.uncovered(entry)
		}
		// Naming the default variant explicitly is fine.
		if b.alg != sweepDefaultAlg && b.alg != mpi.DefaultAlgorithms(b.mach).Get(b.op) {
			g.kind = fbVariant
			g.reason = fmt.Sprintf("the %s expression set models vendor-default algorithms only, not %s[%s]; answered by the exact simulator",
				entry.Name, b.op, b.alg)
			return g
		}
	}
	if entry.Ranges != nil {
		rng, ok := entry.Ranges(b.mach, b.op)
		if !ok {
			return g.uncovered(entry)
		}
		g.ranged, g.rng = true, rng
	}
	return g
}

func (g *group) uncovered(entry *estimate.Entry) *group {
	g.kind = fbUncovered
	g.reason = fmt.Sprintf("%s/%s has no %s expression; answered by the exact simulator",
		g.mach.Name(), g.op, entry.Name)
	return g
}

// compile readies a group whose scenarios may be answered in closed
// form: its backend name, its expression when the entry's backend
// exposes one, and its bound column. A calibrated entry has fitted the
// triple by now (scratch.calibrate precalibrates first).
func (g *group) compile(entry *estimate.Entry) {
	g.backend = entry.Backend.Name()
	switch b := entry.Backend.(type) {
	case *estimate.Calibrated:
		g.expr, g.direct = b.Expression(g.mach, g.op, g.alg), true
	case *estimate.Analytic:
		g.expr, g.direct = b.Predictor().Expression(g.mach.Name(), g.op)
	}
	g.bounds = boundColumns(entry.Bounds, g.mach.Name(), g.op, g.expr.Segments)
}

// bound returns the expected-error bound of the group's closed-form
// answer at m, or nil: the column of the segment the expression answers
// m from, then the last cell whose threshold is at most m.
func (g *group) bound(m int) *Bound {
	if g.bounds == nil {
		return nil
	}
	col := g.bounds[0]
	if len(g.bounds) > 1 {
		col = g.bounds[g.expr.SegmentIndex(m)]
	}
	i := 0
	for i+1 < len(col) && col[i+1].from <= m {
		i++
	}
	return col[i].b
}

// boundCol is one expression segment's bound column: the cells
// ErrorTable.BoundIn chooses among for that segment, sorted by length.
type boundCol []boundCell

// boundCell is one error-table cell of a column: the Bound it puts on
// an answer, built once and shared by every answer it bounds, and its
// threshold from, the smallest m the lookup gives it rather than its
// shorter neighbour.
type boundCell struct {
	from int
	b    *Bound
}

// boundColumns builds the bound column of (mach, op) under an
// expression with segments segs: one column per segment, or one over
// every length for an affine expression (no segments). A segment's
// column holds the row's cells inside the segment, each Bound stamped
// with the segment as an in-segment basis; with no cell inside, it holds
// the whole row unstamped, as BoundIn falls back to Bound. The
// thresholds come from bisecting BoundIn itself, so the column gives
// every m the cell the per-scenario lookup would. nil when the table has
// no cell for the pair.
func boundColumns(t *estimate.ErrorTable, mach string, op machine.Op, segs []fit.Segment) []boundCol {
	if t == nil {
		return nil
	}
	var row []estimate.ErrorCell
	for _, c := range t.Cells {
		if c.Machine == mach && c.Op == op {
			row = append(row, c)
		}
	}
	if len(row) == 0 {
		return nil
	}
	slices.SortStableFunc(row, func(a, b estimate.ErrorCell) int { return cmp.Compare(a.M, b.M) })
	scoped := len(segs) > 0
	if !scoped {
		segs = []fit.Segment{{MMin: 0, MMax: math.MaxInt}}
	}
	cols := make([]boundCol, len(segs))
	for j, seg := range segs {
		lo, hi := seg.MMin, seg.MMax
		in := row[sort.Search(len(row), func(x int) bool { return row[x].M >= lo }):sort.Search(len(row), func(x int) bool { return row[x].M > hi })]
		stamp := scoped && len(in) > 0
		if len(in) == 0 {
			in = row
		}
		col := make(boundCol, len(in))
		for i, c := range in {
			b := &Bound{RelMedian: c.Median, RelMax: c.Max, BasisM: c.M, Points: c.Points}
			if stamp {
				b.SegmentMMin, b.SegmentMMax = lo, hi
			}
			col[i] = boundCell{from: math.MinInt, b: b}
			if i > 0 {
				// The lookup gives the m in (previous length, c.M] to c
				// from some point on; find that point. A repeated length
				// gets only the lengths past it (the search range is
				// empty).
				a := in[i-1].M
				col[i].from = a + 1 + sort.Search(c.M-a, func(k int) bool {
					got, _ := t.BoundIn(mach, op, a+1+k, lo, hi)
					return got.M >= c.M
				})
			}
		}
		cols[j] = col
	}
	return cols
}

// verdict decides one scenario: the group's fixed verdict, or whether
// (p, m) leaves the calibrated envelope.
func (g *group) verdict(p, m int) fallbackKind {
	if g.kind == fbNone && g.ranged && !g.rng.Contains(p, m) {
		return fbOutOfRange
	}
	return g.kind
}

// reasonFor is a fallback scenario's fallback_reason, formatted only
// when the answer is computed (a cache hit already carries it).
func (g *group) reasonFor(it item) string {
	if it.kind == fbOutOfRange {
		return fmt.Sprintf("p=%d m=%d is outside the calibrated range %s; answered by the exact simulator",
			it.p, it.m, g.rng)
	}
	return g.reason
}

// entryState is the server's per-registry-entry memo, keyed by the
// entry's pointer in Server.entries: the entry's answer-cache epoch id
// and its published groups. Reads are one atomic load and a slice
// index; writers copy the slice under mu. The slice is indexed by
// binding id (small process-wide interned integers), so it is bounded
// by the triple space. An entry swapped out by a reload is never looked
// up again.
type entryState struct {
	epoch  uint64
	mu     sync.Mutex
	groups atomic.Pointer[[]*group]
}

// group returns the published group for binding id, or nil.
func (es *entryState) group(id uint64) *group {
	if gs := es.groups.Load(); gs != nil && id < uint64(len(*gs)) {
		return (*gs)[id]
	}
	return nil
}

// publish memoizes g unless a concurrent request already published an
// equivalent group for the same triple.
func (es *entryState) publish(g *group) {
	es.mu.Lock()
	defer es.mu.Unlock()
	var cur []*group
	if gs := es.groups.Load(); gs != nil {
		cur = *gs
	}
	if g.id < uint64(len(cur)) && cur[g.id] != nil {
		return
	}
	next := make([]*group, max(len(cur), int(g.id)+1))
	copy(next, cur)
	next[g.id] = g
	es.groups.Store(&next)
}

// groupFor returns b's group in the request, taking it from the entry's
// memo or building it fresh on first sight.
func (scr *scratch) groupFor(es *entryState, entry *estimate.Entry, b *binding) int32 {
	if gi, ok := scr.byID[b.id]; ok {
		return gi
	}
	rg := reqGroup{group: es.group(b.id)}
	if rg.group == nil {
		rg.group, rg.fresh = newGroup(entry, b), true
	}
	gi := int32(len(scr.groups))
	scr.groups = append(scr.groups, rg)
	scr.byID[b.id] = gi
	return gi
}

// addItem validates one scenario's (p, m) and appends it to group gi.
func (s *Server) addItem(scr *scratch, gi int32, p, m int) error {
	g := &scr.groups[gi]
	m, err := s.checkPM(g.binding, p, m)
	if err != nil {
		return err
	}
	kind := g.verdict(p, m)
	g.closed = g.closed || kind == fbNone
	scr.items = append(scr.items, item{g: gi, kind: kind, p: p, m: m})
	return nil
}

// resolveScenarios groups named scenarios (the JSON and NDJSON codecs)
// through the server-wide triple cache. An error names the first
// failing scenario.
func (s *Server) resolveScenarios(es *entryState, entry *estimate.Entry, scns []Scenario, scr *scratch) error {
	for i, sc := range scns {
		b, err := s.resolveTriple(sc.Machine, sc.Op, sc.Algorithm)
		if err == nil {
			err = s.addItem(scr, scr.groupFor(es, entry, b), sc.P, sc.M)
		}
		if err != nil {
			return fmt.Errorf("scenario %d (%s/%s): %w", i, sc.Machine, sc.Op, err)
		}
	}
	return nil
}

// resolveWire groups a decoded binary request. Each distinct
// (machine, op, algorithm) index triple of the string table is looked
// up once per request — the point of the string table — and every
// record then pays only the (p, m) validation.
func (s *Server) resolveWire(es *entryState, entry *estimate.Entry, req *wire.Request, scr *scratch) error {
	for i, rec := range req.Records {
		tk := uint64(rec.Mach)<<42 | uint64(rec.Op)<<21 | uint64(rec.Alg)
		gi, ok := scr.byWire[tk]
		var err error
		if !ok {
			var b *binding
			if b, err = s.resolveTriple(req.Table[rec.Mach], req.Table[rec.Op], req.Table[rec.Alg]); err == nil {
				gi = scr.groupFor(es, entry, b)
				scr.byWire[tk] = gi
			}
		}
		if err == nil {
			err = s.addItem(scr, gi, rec.P, rec.M)
		}
		if err != nil {
			return fmt.Errorf("scenario %d (%s/%s): %w",
				i, req.Table[rec.Mach], req.Table[rec.Op], err)
		}
	}
	return nil
}

// calibrate finishes the request's fresh groups and publishes them to
// the entry's memo. A calibrated entry first fits the fresh groups'
// closed-form triples through the pool, so a cold batch calibrates its
// triples in parallel instead of behind first-touch workers. Every
// published group that can answer in closed form is compiled first. A
// fresh group of a calibrated entry with no closed-form scenario stays
// unfitted and unpublished; a later request that answers it in closed
// form publishes it. A warm request, every group from the memo, does
// nothing. It reports whether Precalibrate ran.
func (scr *scratch) calibrate(es *entryState, entry *estimate.Entry, workers int) bool {
	cal, _ := entry.Backend.(*estimate.Calibrated)
	precal := scr.precal[:0]
	for i := range scr.groups {
		if g := &scr.groups[i]; g.fresh && g.closed && cal != nil {
			precal = append(precal, estimate.Triple{Machine: g.mach, Op: g.op, Alg: g.algs.Get(g.op)})
		}
	}
	scr.precal = precal
	if len(precal) > 0 {
		cal.Precalibrate(precal, workers)
	}
	for i := range scr.groups {
		g := &scr.groups[i]
		if !g.fresh {
			continue
		}
		if g.kind == fbNone {
			if cal != nil && !g.closed {
				continue
			}
			g.compile(entry)
		}
		es.publish(g.group)
	}
	return len(precal) > 0
}

// blockSize is how many consecutive scenarios one pool job answers.
// A warm closed-form scenario costs ~40 ns in place (Predict plus the
// bound scan), so a block is a few µs of work: still above a job claim
// plus a goroutine start, while a 788-scenario batch splits into 13
// blocks that balance across the pool; paired grid-wire runs on a
// 2-vCPU host read the same at 256 (4 blocks). A request of at most one
// block and no backend calls runs inline in the handler goroutine.
const blockSize = 64

// dispatch answers every item of the request into scr.answers,
// scr.cres and scr.errs (sized and indexed like scr.items). Jobs are
// claimed from one atomic counter by at most workers goroutines, the
// handler's own included. Each scenario that calls a backend — a sim
// fallback, through the answer cache, or a closed form of an entry
// with no expression, uncached — is a job of its own, claimed first,
// so one request's simulations run in parallel rather than queued
// behind each other in a block. Then the request's direct closed forms
// are answered in blocks of blockSize (see answerBlock).
func (s *Server) dispatch(ctx context.Context, entry *estimate.Entry, epoch uint64, scr *scratch, workers int, tr *obs.Trace, base time.Time) {
	items, groups, answers, cres, errs := scr.items, scr.groups, scr.answers, scr.cres, scr.errs
	calls := scr.calls[:0]
	for i := range items {
		if items[i].kind != fbNone || !groups[items[i].g].direct {
			calls = append(calls, int32(i))
		}
	}
	scr.calls = calls
	njobs := len(calls) + (len(items)+blockSize-1)/blockSize
	var next atomic.Int64
	work := func() {
		wt := workerTimer{tr: tr, base: base}
		for j := int(next.Add(1) - 1); j < njobs; j = int(next.Add(1) - 1) {
			if j < len(calls) {
				i := calls[j]
				it := items[i]
				if g := groups[it.g].group; it.kind != fbNone {
					cres[i], errs[i] = s.answerCached(ctx, entry, epoch, g, it, &wt, &answers[i])
				} else {
					answers[i], errs[i] = s.answerSafe(ctx, entry, g, it, &wt)
				}
				continue
			}
			lo := (j - len(calls)) * blockSize
			hi := min(lo+blockSize, len(items))
			answerBlock(groups, items[lo:hi], answers[lo:hi], &wt)
		}
		wt.flush()
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, njobs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// answerBlock answers a block's direct closed forms in place, skipping
// the scenarios dispatch runs as calls: first every answer from its
// group's expression, charged to the estimate stage, then every bound
// from its group's column, charged to the bounds stage. Nothing is
// allocated: the answers share their groups' Bounds.
func answerBlock(groups []reqGroup, items []item, answers []Answer, wt *workerTimer) {
	e0 := wt.start()
	for i := range items {
		it := &items[i]
		if it.kind != fbNone {
			continue
		}
		if g := groups[it.g].group; g.direct {
			// Every field, since the scratch answers are reused; field by
			// field, since a composite literal is built aside and
			// block-copied in, which cost more than the Predict.
			a := &answers[i]
			a.Machine, a.Op, a.Algorithm, a.P, a.M = g.mach.Name(), string(g.op), g.alg, it.p, it.m
			a.Micros, a.Backend = g.expr.Predict(it.m, it.p), g.backend
			a.Fallback, a.FallbackReason = false, ""
		}
	}
	e1 := wt.estimateDone(e0)
	for i := range items {
		it := &items[i]
		if it.kind != fbNone {
			continue
		}
		if g := groups[it.g].group; g.direct {
			answers[i].ExpectedError = g.bound(it.m)
		}
	}
	wt.boundsDone(e1)
}
