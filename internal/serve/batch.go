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
// up. Per scenario only a compare chain against the group's copy of
// checkPM's constants, Range.Contains, the expression's Predict and an
// integer scan of the bound column run, the answer going into two
// columns (µs and bound); only sim fallbacks go through the answer
// cache.

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
	// checkPM's per-triple constants, so a valid scenario pays one
	// compare chain: the machine's node count, the service's m cap, and
	// whether the op is a barrier (m normalized to 0).
	maxP, maxM int
	barrier    bool
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
func (s *Server) groupFor(scr *scratch, es *entryState, entry *estimate.Entry, b *binding) int32 {
	if gi, ok := scr.byID[b.id]; ok {
		return gi
	}
	rg := reqGroup{
		group: es.group(b.id),
		maxP:  b.mach.MaxNodes(), maxM: s.maxMessage(), barrier: b.op == machine.OpBarrier,
	}
	if rg.group == nil {
		rg.group, rg.fresh = newGroup(entry, b), true
	}
	gi := int32(len(scr.groups))
	scr.groups = append(scr.groups, rg)
	scr.byID[b.id] = gi
	return gi
}

// addItem validates one scenario's (p, m) and appends it to group gi.
// Only an invalid scenario goes through checkPM, which words its error.
func (s *Server) addItem(scr *scratch, gi int32, p, m int) error {
	g := &scr.groups[gi]
	if g.barrier {
		m = 0
	}
	if p < 2 || p > g.maxP || m < 0 || m > g.maxM {
		var err error
		if m, err = s.checkPM(g.binding, p, m); err != nil {
			return err
		}
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
			err = s.addItem(scr, s.groupFor(scr, es, entry, b), sc.P, sc.M)
		}
		if err != nil {
			return fmt.Errorf("scenario %d (%s/%s): %w", i, sc.Machine, sc.Op, err)
		}
	}
	return nil
}

// resolveWire groups a decoded binary request. Each distinct
// (machine, op, algorithm) index triple of the string table is looked
// up once per request — the point of the string table — through the
// request's wireTable, and every record then pays only the table probe
// and the (p, m) validation.
func (s *Server) resolveWire(es *entryState, entry *estimate.Entry, req *wire.Request, scr *scratch) error {
	tab := &scr.wtab
	for i, rec := range req.Records {
		// Table indexes are below wire's 1<<20 cap, so the key is exact.
		key := uint64(rec.Mach)<<42 | uint64(rec.Op)<<21 | uint64(rec.Alg)
		sl, ok := tab.find(key)
		var gi int32
		var err error
		if ok {
			gi = sl.gi
		} else {
			var b *binding
			if b, err = s.resolveTriple(req.Table[rec.Mach], req.Table[rec.Op], req.Table[rec.Alg]); err == nil {
				gi = s.groupFor(scr, es, entry, b)
				tab.insert(sl, key, gi)
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

// wireTable maps a binary request's string-table index triples to the
// request's groups: open addressing over a fixed array whose slots are
// stamped with the request's generation, so starting a request costs
// one increment however many triples the requests before it used. It
// holds wireSlots/2 triples; a request with more distinct index
// triples (a string table repeating its names) resolves each record of
// the rest by name, through resolveTriple and groupFor.
type wireTable struct {
	gen   uint32
	n     int
	slots [wireSlots]wireSlot
}

type wireSlot struct {
	gen uint32
	gi  int32
	key uint64
}

const (
	wireBits  = 8
	wireSlots = 1 << wireBits
)

// reset empties the table for the next request.
func (t *wireTable) reset() {
	t.n = 0
	if t.gen++; t.gen == 0 { // wrapped: stale stamps could match again
		t.slots = [wireSlots]wireSlot{}
		t.gen = 1
	}
}

// find returns key's slot and true, or else the empty slot key goes
// into and false — nil once the table is full.
func (t *wireTable) find(key uint64) (*wireSlot, bool) {
	// Fibonacci hashing; at most half the slots are used, so the probe
	// ends at an empty slot.
	for i := key * 0x9e3779b97f4a7c15 >> (64 - wireBits); ; i = (i + 1) & (wireSlots - 1) {
		sl := &t.slots[i]
		if sl.gen != t.gen {
			if t.n == wireSlots/2 {
				return nil, false
			}
			return sl, false
		}
		if sl.key == key {
			return sl, true
		}
	}
}

// insert fills the empty slot find returned for key; a nil slot (the
// table is full) leaves key to the by-name path.
func (t *wireTable) insert(sl *wireSlot, key uint64, gi int32) {
	if sl != nil {
		*sl = wireSlot{gen: t.gen, gi: gi, key: key}
		t.n++
	}
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

// dispatch answers every item of the request: each direct closed form
// into the columns scr.micros and scr.bounds (indexed like scr.items),
// each backend call into scr.called, scr.cres and scr.errs (indexed
// like scr.calls). It returns how many closed forms carry a bound. A
// backend call — a sim fallback, through the answer cache, or a closed
// form of an entry with no expression, uncached — is a job claimed from
// one atomic counter by at most workers goroutines, the handler's own
// included, so one request's simulations run in parallel. The handler
// answers the direct closed forms inline (see answerClosed), in the
// shadow of any calls: at ~40 ns each a batch of them is over before a
// second goroutine would be scheduled, and concurrent requests, which
// the gate admits two per core, keep the other cores busy.
func (s *Server) dispatch(ctx context.Context, entry *estimate.Entry, epoch uint64, scr *scratch, workers int, tr *obs.Trace, base time.Time) int {
	items, groups := scr.items, scr.groups
	calls := scr.calls[:0]
	for i := range items {
		if items[i].kind != fbNone || !groups[items[i].g].direct {
			calls = append(calls, int32(i))
		}
	}
	scr.calls = calls
	n := len(calls)
	scr.micros, scr.bounds = resize(scr.micros, len(items)), resize(scr.bounds, len(items))
	scr.called, scr.cres, scr.errs = resize(scr.called, n), resize(scr.cres, n), resize(scr.errs, n)
	scr.next.Store(0)
	for w := 1; w < min(workers, n); w++ {
		scr.wg.Add(1)
		go func() {
			defer scr.wg.Done()
			wt := workerTimer{tr: tr, base: base}
			s.answerCalls(ctx, entry, epoch, scr, &wt)
			wt.flush()
		}()
	}
	wt := workerTimer{tr: tr, base: base}
	nb := answerClosed(groups, items, scr.micros, scr.bounds, &wt)
	if n > 0 {
		s.answerCalls(ctx, entry, epoch, scr, &wt)
	}
	wt.flush()
	scr.wg.Wait()
	return nb
}

// answerCalls claims the request's backend calls until none is left.
// Every call writes its Answer and error, a fallback its cache verdict
// too, so the pooled slices need no clearing.
func (s *Server) answerCalls(ctx context.Context, entry *estimate.Entry, epoch uint64, scr *scratch, wt *workerTimer) {
	for j := int(scr.next.Add(1) - 1); j < len(scr.calls); j = int(scr.next.Add(1) - 1) {
		it := scr.items[scr.calls[j]]
		if g := scr.groups[it.g].group; it.kind != fbNone {
			scr.cres[j], scr.errs[j] = s.answerCached(ctx, entry, epoch, g, it, wt, &scr.called[j])
		} else {
			scr.called[j], scr.errs[j] = s.answerSafe(ctx, entry, g, it, wt)
		}
	}
}

// answerClosed answers the request's direct closed forms into the
// columns, skipping the items dispatch answers through a backend call:
// first each µs from its group's expression, charged to the estimate
// stage, then each bound from its group's column, charged to the
// bounds stage. It returns how many answers carry a bound. Nothing is
// allocated: the answers share their groups' Bounds.
func answerClosed(groups []reqGroup, items []item, micros []float64, bounds []*Bound, wt *workerTimer) int {
	micros, bounds = micros[:len(items)], bounds[:len(items)]
	e0 := wt.start()
	for i := range items {
		it := &items[i]
		if g := groups[it.g].group; it.kind == fbNone && g.direct {
			micros[i] = g.expr.Predict(it.m, it.p)
		}
	}
	e1 := wt.estimateDone(e0)
	nb := 0
	for i := range items {
		it := &items[i]
		if g := groups[it.g].group; it.kind == fbNone && g.direct {
			b := g.bound(it.m)
			bounds[i] = b
			if b != nil {
				nb++
			}
		}
	}
	wt.boundsDone(e1)
	return nb
}
