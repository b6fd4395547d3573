package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// Worker names one backend serve process.
type Worker struct {
	// Name is the worker's identity in metrics, reload reports, and the
	// scraper's instance label.
	Name string
	// URL is the worker's base URL, e.g. "http://127.0.0.1:8080".
	URL string
}

// Config parameterizes a Front. The zero value of each knob picks a
// usable default.
type Config struct {
	// Workers is the fleet, in ring order. The sharding function maps
	// scenarios onto positions in this slice, so the list must be the
	// same (same order) on every front for the cache partition to hold.
	Workers []Worker
	// Client issues the sub-requests; nil uses a dedicated keep-alive
	// client.
	Client *http.Client
	// Timeout bounds one sub-request attempt (connect + worker answer);
	// ≤ 0 means 30s. The client's own deadline (X-Estimate-Deadline-Ms /
	// request context) still applies on top.
	Timeout time.Duration
	// Retries caps the attempts per sub-batch beyond the first; ≤ 0
	// means every other worker may be tried (the full failover ladder).
	Retries int
	// WorkerConcurrent bounds the sub-requests in flight per worker
	// (the front-side token bucket a rolling reload drains); ≤ 0 means 8.
	WorkerConcurrent int
	// WorkerQueue bounds the sub-requests waiting per worker beyond the
	// concurrency budget; ≤ 0 means 64.
	WorkerQueue int
	// DrainTimeout bounds quiescing one worker's gate during a rolling
	// reload; ≤ 0 means 10s.
	DrainTimeout time.Duration
	// ReloadTimeout bounds one worker's registry rebuild during a
	// rolling reload; ≤ 0 means 60s.
	ReloadTimeout time.Duration
	// Metrics, when non-nil, records the front series (see NewMetrics).
	Metrics *Metrics
	// Logger, when non-nil, gets one debug line per failover retry and
	// per liveness flip.
	Logger *obs.Logger
	// Scraper, when non-nil, supplies the merged fleet view GET /metrics
	// serves and the /status scrape table. Feed its OnLiveness callback
	// into SetLive to blend scrape health into the failover ladder.
	Scraper *fleet.Scraper
}

// workerState is one worker's runtime state at the front.
type workerState struct {
	w    Worker
	gate *serve.Gate
	// down marks the worker skippable on the failover ladder's first
	// pass — set by transport errors and scraper down transitions,
	// cleared by any success (either source).
	down atomic.Bool
}

// Front is the sharding data plane over a fleet of serve workers. Build
// with New, mount Handler.
type Front struct {
	cfg     Config
	client  *http.Client
	workers []*workerState
	byName  map[string]*workerState

	// reloadMu serializes rolling reloads: a second POST /v1/reload
	// while one runs is a 409, not a second rollout.
	reloadMu sync.Mutex

	// Trace-ID minting, same scheme as the workers': a start-time seed
	// and an atomic counter.
	traceOnce sync.Once
	traceSeed uint64
	traceN    atomic.Uint64
}

// New builds a Front over cfg. Worker names must be unique: they key
// the per-worker metrics and the reload report.
func New(cfg Config) (*Front, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("front: no workers")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.WorkerConcurrent <= 0 {
		cfg.WorkerConcurrent = 8
	}
	if cfg.WorkerQueue <= 0 {
		cfg.WorkerQueue = 64
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.ReloadTimeout <= 0 {
		cfg.ReloadTimeout = 60 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.WorkerConcurrent}}
	}
	f := &Front{cfg: cfg, client: client, byName: make(map[string]*workerState, len(cfg.Workers))}
	for _, w := range cfg.Workers {
		if w.Name == "" || w.URL == "" {
			return nil, fmt.Errorf("front: worker needs both a name and a URL, got %q=%q", w.Name, w.URL)
		}
		if _, dup := f.byName[w.Name]; dup {
			return nil, fmt.Errorf("front: duplicate worker name %q", w.Name)
		}
		for len(w.URL) > 0 && w.URL[len(w.URL)-1] == '/' {
			w.URL = w.URL[:len(w.URL)-1]
		}
		ws := &workerState{w: w, gate: serve.NewGate(cfg.WorkerConcurrent, cfg.WorkerQueue)}
		f.workers = append(f.workers, ws)
		f.byName[w.Name] = ws
	}
	return f, nil
}

// WorkerNames returns the fleet's names in ring order — the list
// NewMetrics pre-registers per-worker counters for.
func WorkerNames(workers []Worker) []string {
	names := make([]string, len(workers))
	for i, w := range workers {
		names[i] = w.Name
	}
	return names
}

// SetLive marks one worker up or down on the failover ladder. Wire the
// scraper's OnLiveness callback here; the front's own transport
// observations call it too, so whichever source saw the flip first
// wins and whichever sees the recovery first clears it.
func (f *Front) SetLive(name string, up bool) {
	ws, ok := f.byName[name]
	if !ok {
		return
	}
	if ws.down.Swap(!up) == up && f.cfg.Logger != nil {
		f.cfg.Logger.Debug("worker liveness", obs.F("worker", name), obs.F("up", up))
	}
}

// Handler returns the front's HTTP handler: the worker-compatible
// estimate surface plus the fleet control and observability routes.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", f.handleEstimate)
	mux.HandleFunc("GET /v1/registry", f.handleRegistry)
	mux.HandleFunc("POST /v1/reload", f.handleReload)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /status", f.handleStatus)
	return f.withTraceID(f.recoverPanics(mux))
}

// validTraceID mirrors the workers' acceptance rule: printable ASCII
// without spaces, quotes, or backslashes, capped at 128 bytes.
func validTraceID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

func (f *Front) newTraceID() string {
	f.traceOnce.Do(func() {
		f.traceSeed = uint64(time.Now().UnixNano()) * 0x9E3779B97F4A7C15
		if f.traceSeed == 0 {
			f.traceSeed = 1
		}
	})
	buf := make([]byte, 0, 28)
	buf = strconv.AppendUint(buf, f.traceSeed, 16)
	buf = append(buf, '-')
	buf = strconv.AppendUint(buf, f.traceN.Add(1), 16)
	return string(buf)
}

// withTraceID resolves the request's trace ID (inbound header or
// minted), echoes it on the response — sheds, 415s, and exhausted
// failovers included — and normalizes the request header so every
// sub-request forwards the same ID to its worker.
func (f *Front) withTraceID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(serve.TraceIDHeader)
		if !validTraceID(id) {
			id = f.newTraceID()
			r.Header.Set(serve.TraceIDHeader, id)
		}
		w.Header().Set(serve.TraceIDHeader, id)
		next.ServeHTTP(w, r)
	})
}

// recoverPanics converts a panicking handler into a 500 response, like
// the workers' middleware.
func (f *Front) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				serve.WriteJSONError(w, http.StatusInternalServerError,
					fmt.Errorf("internal error: front handler panicked: %v", rec))
				f.cfg.Metrics.request(http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// deadlineHeader is the per-request deadline override the front
// forwards to workers verbatim (the workers' X-Estimate-Deadline-Ms).
const deadlineHeader = "X-Estimate-Deadline-Ms"

// maxBodyBytes mirrors the workers' request-body cap.
const maxBodyBytes = 16 << 20

func (f *Front) handleEstimate(w http.ResponseWriter, r *http.Request) {
	f.cfg.Metrics.begin()
	defer f.cfg.Metrics.end()
	status := f.serveEstimate(w, r)
	f.cfg.Metrics.request(status)
}

// group is one worker's share of a client batch: the original indexes
// it owns, and — after the fan-out — either its decoded answers or how
// it failed.
type group struct {
	owner int   // ring position of the owning worker
	idx   []int // original scenario indexes, in sub-batch order

	// Success: the sub-batch answers (JSON/NDJSON decode into answers,
	// binary into wanswers) plus the worker's response envelope.
	answers                       []serve.Answer
	wanswers                      []wire.Answer
	registry, backend, provenance string
	cache                         string
	servedBy                      string

	// Permanent failure: the worker's authoritative non-retryable
	// response, propagated to the client verbatim.
	status int
	body   []byte
	header http.Header

	// Exhausted failover: every ladder rung failed retryably.
	err error
}

// serveEstimate does the work of POST /v1/estimate: decode, shard,
// fan out with failover, merge, re-encode. Returns the response status
// for the outcome series.
func (f *Front) serveEstimate(w http.ResponseWriter, r *http.Request) int {
	fail := func(status int, err error) int {
		serve.WriteJSONError(w, status, err)
		return status
	}
	codec, err := serve.NegotiateCodec(r.Header.Get("Content-Type"), true)
	if err != nil {
		w.Header().Set("Accept-Post", serve.AcceptPost)
		return fail(http.StatusUnsupportedMediaType, err)
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		return fail(status, fmt.Errorf("reading request body: %w", err))
	}

	// Decode just far enough to shard: scenario identities and the
	// registry name. Estimation-level validation stays on the workers.
	var regName string
	var scns []serve.Scenario
	var wreq wire.Request
	n := 0
	switch codec {
	case serve.CodecNDJSON:
		scns, err = serve.ParseNDJSON(body)
		n = len(scns)
	case serve.CodecBinary:
		if err = wreq.Decode(body); err == nil {
			regName = wreq.Registry
			n = len(wreq.Records)
		}
	default:
		regName, scns, err = serve.ParseJSONRequest(body)
		n = len(scns)
	}
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	if regName == "" {
		regName = r.URL.Query().Get("registry")
	}
	if n == 0 {
		return fail(http.StatusBadRequest, errors.New("the request carries no scenarios"))
	}

	// Shard: owner per scenario, sub-batch per owner. Scenario order is
	// preserved inside each sub-batch, and idx remembers where each
	// answer goes in the merged response.
	nw := len(f.workers)
	byOwner := make([][]int, nw)
	if codec == serve.CodecBinary {
		for i, rec := range wreq.Records {
			o := Owner(wreq.Table[rec.Mach], wreq.Table[rec.Op], wreq.Table[rec.Alg], rec.P, rec.M, nw)
			byOwner[o] = append(byOwner[o], i)
		}
	} else {
		for i, sc := range scns {
			o := Owner(sc.Machine, sc.Op, sc.Algorithm, sc.P, sc.M, nw)
			byOwner[o] = append(byOwner[o], i)
		}
	}
	var groups []*group
	for o, idx := range byOwner {
		if len(idx) > 0 {
			groups = append(groups, &group{owner: o, idx: idx})
		}
	}

	traceID := r.Header.Get(serve.TraceIDHeader)
	deadlineMS := r.Header.Get(deadlineHeader)
	var wg sync.WaitGroup
	for _, g := range groups {
		sub, subErr := f.encodeSub(codec, regName, &wreq, scns, g.idx)
		if subErr != nil {
			return fail(http.StatusInternalServerError, subErr)
		}
		wg.Add(1)
		go func(g *group, sub []byte) {
			defer wg.Done()
			f.runGroup(r.Context(), g, codec, regName, sub, traceID, deadlineMS)
		}(g, sub)
	}
	wg.Wait()

	// Permanent worker refusals win over exhausted failovers: the 4xx
	// says the request itself is wrong, which no amount of retrying
	// would fix. Groups are in owner order, so the propagated failure is
	// deterministic for a given batch.
	for _, g := range groups {
		if g.status >= 400 {
			for _, h := range []string{"X-Estimate-Registry", "X-Estimate-Backend", "X-Estimate-Provenance"} {
				if v := g.header.Get(h); v != "" {
					w.Header().Set(h, v)
				}
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(g.status)
			w.Write(g.body)
			return g.status
		}
	}
	for _, g := range groups {
		if g.err != nil {
			return fail(http.StatusBadGateway,
				fmt.Errorf("shard %d (%d scenarios): %w", g.owner, len(g.idx), g.err))
		}
	}

	// Merge. The envelope comes from the lowest-owner group — every
	// group resolved the same registry name, so the values agree; taking
	// the first makes the headers deterministic regardless of which
	// goroutine finished last.
	env := groups[0]
	serve.SetProvenanceHeaders(w, env.registry, env.backend, env.provenance)
	w.Header().Set("X-Estimate-Cache", mergeCacheVerdict(groups))
	switch codec {
	case serve.CodecBinary:
		merged := make([]wire.Answer, n)
		for _, g := range groups {
			for j, orig := range g.idx {
				merged[orig] = g.wanswers[j]
			}
		}
		buf := wire.AppendResponseHeader(nil, env.registry, env.backend, env.provenance, n)
		for i := range merged {
			buf = wire.AppendAnswer(buf, merged[i])
		}
		w.Header().Set("Content-Type", wire.ContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(buf)
	case serve.CodecNDJSON:
		serve.WriteNDJSONAnswers(w, mergeAnswers(groups, n))
	default:
		resp := serve.Response{
			Registry: env.registry, Backend: env.backend, Provenance: env.provenance,
			Answers: mergeAnswers(groups, n),
		}
		serve.WriteJSONResponse(w, &resp)
	}
	return http.StatusOK
}

func mergeAnswers(groups []*group, n int) []serve.Answer {
	merged := make([]serve.Answer, n)
	for _, g := range groups {
		for j, orig := range g.idx {
			merged[orig] = g.answers[j]
		}
	}
	return merged
}

// mergeCacheVerdict folds the workers' X-Estimate-Cache headers into
// the verdict one worker would give the whole request: any miss →
// "miss", else any hit → "hit" (every fallback that touched a cache
// hit), else "bypass" (no scenario touched one).
func mergeCacheVerdict(groups []*group) string {
	verdict := "bypass"
	for _, g := range groups {
		switch g.cache {
		case "miss":
			return "miss"
		case "hit":
			verdict = "hit"
		}
	}
	return verdict
}

// encodeSub builds one owner's sub-request body in the inbound codec.
// The binary sub-frame reuses the client's full string table, so record
// indexes stay valid without re-interning; the table travels once per
// sub-request, which is still far cheaper than JSON names per record.
func (f *Front) encodeSub(codec serve.Codec, regName string, wreq *wire.Request, scns []serve.Scenario, idx []int) ([]byte, error) {
	switch codec {
	case serve.CodecBinary:
		sub := wire.Request{Registry: regName, Table: wreq.Table, Records: make([]wire.Record, len(idx))}
		for j, orig := range idx {
			sub.Records[j] = wreq.Records[orig]
		}
		return sub.Append(nil), nil
	case serve.CodecNDJSON:
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, orig := range idx {
			if err := enc.Encode(&scns[orig]); err != nil {
				return nil, fmt.Errorf("encoding sub-batch: %w", err)
			}
		}
		return buf.Bytes(), nil
	default:
		sub := make([]serve.Scenario, len(idx))
		for j, orig := range idx {
			sub[j] = scns[orig]
		}
		b, err := json.Marshal(sub)
		if err != nil {
			return nil, fmt.Errorf("encoding sub-batch: %w", err)
		}
		return b, nil
	}
}

// ladder returns the failover order for one owner: live workers in
// ring order starting at the owner, then down-marked workers in the
// same order as a last resort — a dead worker costs the first sub-batch
// a timeout, not every sub-batch one.
func (f *Front) ladder(owner int) []*workerState {
	nw := len(f.workers)
	order := make([]*workerState, 0, nw)
	var skipped []*workerState
	for k := 0; k < nw; k++ {
		ws := f.workers[(owner+k)%nw]
		if ws.down.Load() {
			skipped = append(skipped, ws)
		} else {
			order = append(order, ws)
		}
	}
	return append(order, skipped...)
}

func (f *Front) maxAttempts() int {
	if f.cfg.Retries <= 0 || f.cfg.Retries > len(f.workers)-1 {
		return len(f.workers)
	}
	return f.cfg.Retries + 1
}

// runGroup sends one owner's sub-batch down the failover ladder until a
// worker answers it (or refuses it permanently, or the ladder runs
// out). Fills g with the outcome.
func (f *Front) runGroup(ctx context.Context, g *group, codec serve.Codec, regName string, sub []byte, traceID, deadlineMS string) {
	order := f.ladder(g.owner)
	if max := f.maxAttempts(); len(order) > max {
		order = order[:max]
	}
	owner := f.workers[g.owner]
	var lastErr error
	for ai, ws := range order {
		if ai > 0 {
			f.cfg.Metrics.retried()
			if f.cfg.Logger != nil {
				f.cfg.Logger.Debug("failover retry",
					obs.F("trace_id", traceID), obs.F("shard", g.owner),
					obs.F("worker", ws.w.Name), obs.F("attempt", ai+1),
					obs.F("error", fmt.Sprint(lastErr)))
			}
		}
		err := f.attempt(ctx, g, ws, codec, regName, sub, traceID, deadlineMS)
		if err == nil {
			if g.status >= 400 {
				// A permanent refusal is an answer: the worker is healthy
				// and the request is wrong.
				f.cfg.Metrics.worker(ws.w.Name, true)
			} else {
				f.cfg.Metrics.worker(ws.w.Name, true)
				f.SetLive(ws.w.Name, true)
				g.servedBy = ws.w.Name
				if ws != owner {
					f.cfg.Metrics.rebalanced()
				}
			}
			return
		}
		f.cfg.Metrics.worker(ws.w.Name, false)
		var transport *transportError
		if errors.As(err, &transport) {
			f.SetLive(ws.w.Name, false)
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the client is gone or its deadline passed; stop burning workers
		}
	}
	g.err = fmt.Errorf("all %d workers failed (last: %w)", len(order), lastErr)
}

// transportError marks a sub-request failure that never reached a
// worker handler — the liveness-flipping kind.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// attempt sends the sub-batch to one worker and decodes its response
// into g. A nil return means the ladder is done: either g holds the
// answers, or g.status holds a permanent refusal. A non-nil return
// means try the next rung (429, 5xx, transport error, or a 200 whose
// body does not decode).
func (f *Front) attempt(ctx context.Context, g *group, ws *workerState, codec serve.Codec, regName string, sub []byte, traceID, deadlineMS string) error {
	if err := ws.gate.Acquire(ctx, nil); err != nil {
		return &transportError{fmt.Errorf("front gate for %s: %w", ws.w.Name, err)}
	}
	defer ws.gate.Release()

	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	target := ws.w.URL + "/v1/estimate"
	// JSON sub-bodies are bare scenario arrays and NDJSON lines carry no
	// envelope, so the registry choice rides the query string; the
	// binary sub-frame already names it.
	if regName != "" && codec != serve.CodecBinary {
		target += "?registry=" + url.QueryEscape(regName)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(sub))
	if err != nil {
		return &transportError{err}
	}
	switch codec {
	case serve.CodecBinary:
		req.Header.Set("Content-Type", wire.ContentType)
	case serve.CodecNDJSON:
		req.Header.Set("Content-Type", "application/x-ndjson")
	default:
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(serve.TraceIDHeader, traceID)
	if deadlineMS != "" {
		req.Header.Set(deadlineHeader, deadlineMS)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return &transportError{err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return &transportError{fmt.Errorf("reading %s response: %w", ws.w.Name, err)}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if err := g.decode(codec, resp.Header, body); err != nil {
			return fmt.Errorf("%s answered 200 but: %w", ws.w.Name, err)
		}
		return nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		return fmt.Errorf("%s answered %d: %s", ws.w.Name, resp.StatusCode, errExcerpt(body))
	default:
		// A non-429 4xx is authoritative; keep the worker's envelope.
		g.status = resp.StatusCode
		g.body = body
		g.header = resp.Header
		return nil
	}
}

// decode parses one worker's 200 response into the group, validating
// the answer count against the sub-batch so a malformed worker response
// fails over instead of merging short.
func (g *group) decode(codec serve.Codec, header http.Header, body []byte) error {
	g.cache = header.Get("X-Estimate-Cache")
	switch codec {
	case serve.CodecBinary:
		var wresp wire.Response
		if err := wresp.Decode(body); err != nil {
			return err
		}
		if len(wresp.Answers) != len(g.idx) {
			return fmt.Errorf("%d answers for %d scenarios", len(wresp.Answers), len(g.idx))
		}
		g.wanswers = wresp.Answers
		g.registry, g.backend, g.provenance = wresp.Registry, wresp.Backend, wresp.Provenance
	case serve.CodecNDJSON:
		answers, err := parseNDJSONAnswers(body)
		if err != nil {
			return err
		}
		if len(answers) != len(g.idx) {
			return fmt.Errorf("%d answers for %d scenarios", len(answers), len(g.idx))
		}
		g.answers = answers
		g.registry = header.Get("X-Estimate-Registry")
		g.backend = header.Get("X-Estimate-Backend")
		g.provenance = header.Get("X-Estimate-Provenance")
	default:
		var resp serve.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decoding response: %w", err)
		}
		if len(resp.Answers) != len(g.idx) {
			return fmt.Errorf("%d answers for %d scenarios", len(resp.Answers), len(g.idx))
		}
		g.answers = resp.Answers
		g.registry, g.backend, g.provenance = resp.Registry, resp.Backend, resp.Provenance
	}
	return nil
}

// parseNDJSONAnswers decodes one answer object per non-blank line.
func parseNDJSONAnswers(body []byte) ([]serve.Answer, error) {
	var answers []serve.Answer
	for line := 0; len(body) > 0; {
		raw := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			raw, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		line++
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 {
			continue
		}
		var a serve.Answer
		if err := json.Unmarshal(raw, &a); err != nil {
			return nil, fmt.Errorf("decoding NDJSON answer line %d: %w", line, err)
		}
		answers = append(answers, a)
	}
	return answers, nil
}

// errExcerpt pulls the error string out of a worker's JSON error
// envelope, falling back to a clipped raw body.
func errExcerpt(body []byte) string {
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error != "" {
		return env.Error
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return string(bytes.TrimSpace(body))
}

// handleRegistry proxies GET /v1/registry to the first worker that
// answers — the listing is fleet-uniform, any worker's copy serves.
func (f *Front) handleRegistry(w http.ResponseWriter, r *http.Request) {
	var lastErr error = errors.New("no workers")
	for _, ws := range f.ladder(0) {
		ctx, cancel := context.WithTimeout(r.Context(), f.cfg.Timeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ws.w.URL+"/v1/registry", nil)
		if err != nil {
			cancel()
			lastErr = err
			continue
		}
		req.Header.Set(serve.TraceIDHeader, r.Header.Get(serve.TraceIDHeader))
		resp, err := f.client.Do(req)
		if err != nil {
			cancel()
			f.SetLive(ws.w.Name, false)
			lastErr = err
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		f.SetLive(ws.w.Name, true)
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return
	}
	serve.WriteJSONError(w, http.StatusBadGateway, fmt.Errorf("no worker answered the registry listing: %w", lastErr))
}

// handleMetrics serves the merged fleet view — the scraper's
// aggregation of every worker — with the front's own families appended,
// so one scrape covers the whole data plane. Without a scraper the
// front's own registry is served alone.
func (f *Front) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	merged := &obs.ParsedMetrics{}
	if f.cfg.Scraper != nil {
		var err error
		if merged, err = f.cfg.Scraper.Merged(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if reg := f.cfg.Metrics.Registry(); reg != nil {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		own, err := obs.ParsePrometheus(buf.Bytes())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		merged.Families = append(merged.Families, own.Families...)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	merged.WritePrometheus(w)
}

// WorkerStatus is one worker's row in the /status document.
type WorkerStatus struct {
	Name string `json:"worker"`
	URL  string `json:"url"`
	// Live is the failover ladder's current view: false means the
	// worker is skipped on the first pass.
	Live bool `json:"live"`
}

// handleStatus reports the front's failover view and, when a scraper
// is attached, the per-instance scrape health.
func (f *Front) handleStatus(w http.ResponseWriter, _ *http.Request) {
	doc := struct {
		Workers []WorkerStatus         `json:"workers"`
		Scrapes []fleet.InstanceStatus `json:"scrapes,omitempty"`
	}{}
	for _, ws := range f.workers {
		doc.Workers = append(doc.Workers, WorkerStatus{
			Name: ws.w.Name, URL: ws.w.URL, Live: !ws.down.Load(),
		})
	}
	if f.cfg.Scraper != nil {
		doc.Scrapes = f.cfg.Scraper.Status()
	}
	writeJSON(w, http.StatusOK, doc)
}

// writeJSON matches the workers' response framing (two-space indent,
// trailing newline) for the front's own JSON documents.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}
