package serve

import (
	"context"
	"fmt"
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
// variant checks, the calibrated envelope, and (for piecewise entries)
// the expression whose segments scope the bounds — is decided once per
// (entry, triple) and memoized in the entry's entryState, so a warm
// request only looks its groups up. Per scenario only checkPM,
// Range.Contains and the answer itself run.

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
	// expr is a piecewise entry's fitted expression, whose segments
	// scope the bound lookup; the zero value (no segments) otherwise.
	expr fit.Expression
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
// triples in parallel instead of behind first-touch workers, and hoists
// each one's piecewise expression for the bound lookup. A fresh group
// of a calibrated entry with no closed-form scenario stays unfitted and
// unpublished; a later request that answers it in closed form
// publishes it. A warm request, every group from the memo, does
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
		if cal != nil && g.kind == fbNone {
			if !g.closed {
				continue
			}
			if cal.Fit.Piecewise {
				g.expr = cal.Expression(g.mach, g.op, g.alg)
			}
		}
		es.publish(g.group)
	}
	return len(precal) > 0
}

// blockSize is how many consecutive scenarios one pool job answers.
// A warm closed-form scenario (an answer-cache hit) costs ~0.2–0.4 µs
// in the traced grid-wire decomposition, so a block is ~15–25 µs of
// work: an order of magnitude above a job claim plus a goroutine
// start, while a 788-scenario batch still splits into 13 blocks that
// balance across the pool. A request of at most one block and no
// fallbacks therefore runs inline in the handler goroutine.
const blockSize = 64

// dispatch answers every item of the request into scr.answers,
// scr.cres and scr.errs (sized and indexed like scr.items). Jobs are
// claimed from one atomic counter by at most workers goroutines, the
// handler's own included: each fallback scenario is a job of its own,
// claimed first, so one request's simulations run in parallel rather
// than queued behind each other in a block; then the request's
// scenarios in blocks of blockSize, skipping the fallbacks.
func (s *Server) dispatch(ctx context.Context, entry *estimate.Entry, epoch uint64, scr *scratch, workers int, tr *obs.Trace, base time.Time) {
	items, answers, cres, errs := scr.items, scr.answers, scr.cres, scr.errs
	fb := scr.fb[:0]
	for i := range items {
		if items[i].kind != fbNone {
			fb = append(fb, int32(i))
		}
	}
	scr.fb = fb
	one := func(i int, wt *workerTimer) {
		it := items[i]
		cres[i], errs[i] = s.answerCached(ctx, entry, epoch, scr.groups[it.g].group, it, wt, &answers[i])
	}
	njobs := len(fb) + (len(items)+blockSize-1)/blockSize
	var next atomic.Int64
	work := func() {
		wt := workerTimer{tr: tr, base: base}
		for j := int(next.Add(1) - 1); j < njobs; j = int(next.Add(1) - 1) {
			if j < len(fb) {
				one(int(fb[j]), &wt)
				continue
			}
			lo := (j - len(fb)) * blockSize
			for i := lo; i < min(lo+blockSize, len(items)); i++ {
				if items[i].kind == fbNone {
					one(i, &wt)
				}
			}
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
