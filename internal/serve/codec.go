package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/estimate"
	"repro/internal/serve/wire"
)

// Codec names the wire formats POST /v1/estimate negotiates by
// Content-Type. JSON stays the default (and the golden-pinned format);
// NDJSON is the curl-able streaming fallback; binary is the
// length-prefixed fast path (package wire). Exported because the
// sharding front (internal/serve/front) speaks the same three formats:
// it negotiates with NegotiateCodec, splits requests with the Parse
// helpers, and merges worker answers back with the Write helpers.
type Codec int

const (
	CodecUnknown Codec = iota - 1 // negotiation failed (415)
	CodecJSON
	CodecNDJSON
	CodecBinary
	numCodecs = 3
)

var codecNames = [numCodecs]string{"json", "ndjson", "binary"}

// Content types the endpoint accepts. JSON additionally answers
// requests with no Content-Type at all and curl's -d default
// (x-www-form-urlencoded), which has always carried JSON here.
const (
	ctJSON   = "application/json"
	ctNDJSON = "application/x-ndjson"
)

// AcceptPost is the Accept-Post header value a 415 response carries.
const AcceptPost = ctJSON + ", " + ctNDJSON + ", " + wire.ContentType

// NegotiateCodec maps a request's Content-Type to a codec. Unknown
// types are a 415 — falling through to the JSON decoder would surface
// as a confusing syntax 400. wireEnabled false restricts negotiation to
// the JSON content types (the DisableWire server mode).
func NegotiateCodec(contentType string, wireEnabled bool) (Codec, error) {
	if contentType == "" {
		return CodecJSON, nil
	}
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return CodecUnknown, fmt.Errorf("unparseable Content-Type %q; supported: %s", contentType, AcceptPost)
	}
	switch mt {
	case ctJSON, "text/json", "application/x-www-form-urlencoded":
		return CodecJSON, nil
	case ctNDJSON:
		if wireEnabled {
			return CodecNDJSON, nil
		}
	case wire.ContentType:
		if wireEnabled {
			return CodecBinary, nil
		}
	}
	return CodecUnknown, fmt.Errorf("unsupported Content-Type %q; supported: %s", contentType, AcceptPost)
}

func (s *Server) negotiate(r *http.Request) (Codec, error) {
	return NegotiateCodec(r.Header.Get("Content-Type"), !s.DisableWire)
}

// ParseNDJSON decodes one scenario object per non-blank line.
func ParseNDJSON(body []byte) ([]Scenario, error) {
	var scns []Scenario
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
		var sc Scenario
		if err := json.Unmarshal(raw, &sc); err != nil {
			return nil, fmt.Errorf("decoding NDJSON line %d: %w", line, err)
		}
		scns = append(scns, sc)
	}
	return scns, nil
}

// WriteNDJSONAnswers streams one compact answer object per line. The
// response envelope (registry, backend, provenance) travels in the
// X-Estimate-* headers, like every response.
func WriteNDJSONAnswers(w http.ResponseWriter, answers []Answer) {
	buf := getBuffer()
	defer putBuffer(buf)
	enc := json.NewEncoder(buf)
	for i := range answers {
		if err := enc.Encode(&answers[i]); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	writeBody(w, http.StatusOK, ctNDJSON, buf.Bytes())
}

// writeWire encodes the binary response into the scratch buffer (grown
// once, reused across requests) straight from the request's answers —
// a closed form from the columns, a backend call from its Answer — and
// writes it in one call.
func writeWire(w http.ResponseWriter, scr *scratch, registry, backend, provenance string) {
	b := wire.AppendResponseHeader(scr.wbuf[:0], registry, backend, provenance, len(scr.items))
	calls, j := scr.calls, 0
	for i := range scr.items {
		// Bound and wire.Bound share their fields, so the pointer
		// converts; a field added to one but not the other stops this
		// compiling.
		if j < len(calls) && int(calls[j]) == i {
			a := &scr.called[j]
			j++
			b = wire.AppendAnswerParts(b, a.Micros, a.Fallback, a.FallbackReason, (*wire.Bound)(a.ExpectedError))
			continue
		}
		b = wire.AppendAnswerParts(b, scr.micros[i], false, "", (*wire.Bound)(scr.bounds[i]))
	}
	scr.wbuf = b
	writeBody(w, http.StatusOK, wire.ContentType, b)
}

// answerList assembles the request's answers in order for the JSON and
// NDJSON encoders: a backend call's Answer as answered, a direct closed
// form's built from its group, its item and the columns — the one place
// a closed-form Answer is built.
func (scr *scratch) answerList() []Answer {
	answers := resize(scr.answers, len(scr.items))
	scr.answers = answers
	calls, j := scr.calls, 0
	for i, it := range scr.items {
		if j < len(calls) && int(calls[j]) == i {
			answers[i] = scr.called[j]
			j++
			continue
		}
		g := scr.groups[it.g].group
		answers[i] = Answer{
			Scenario: Scenario{Machine: g.mach.Name(), Op: string(g.op), Algorithm: g.alg, P: it.p, M: it.m},
			Micros:   scr.micros[i], Backend: g.backend, ExpectedError: scr.bounds[i],
		}
	}
	return answers
}

// writeBody writes a fully buffered response with its Content-Length,
// so net/http sends it in one piece instead of chunking it.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// bufPool recycles the request-body and response-encode buffers across
// requests — per-request buffer allocation was a measurable share of
// the JSON path's cost, and the binary path wants none at all.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuffer keeps one-off giants (a near-cap request body) from
// pinning memory in the pool; a batched 788-scenario response is well
// under it.
const maxPooledBuffer = 4 << 20

func getBuffer() *bytes.Buffer {
	return bufPool.Get().(*bytes.Buffer)
}

func putBuffer(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuffer {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// scratch is the per-request working set — the grouped batch (items,
// groups, and the lookups that build them), the answers, the decoded
// binary frame, and the binary encode buffer — pooled so a steady
// request stream stops allocating per request on every codec path.
// Slices are resliced and fully overwritten each use.
type scratch struct {
	items  []item
	groups []reqGroup
	byID   map[uint64]int32  // binding id → group index
	wtab   wireTable         // binary string-table index triple → group index
	precal []estimate.Triple // the request's closed-form triples
	// The answers (see dispatch). A direct closed form's are two columns
	// indexed like items, its µs and its bound; a backend call's is a
	// whole Answer with its cache verdict and error, indexed like calls,
	// the indexes of the items answered by a backend call. next is the
	// calls' job counter, wg the goroutines helping claim them.
	micros  []float64
	bounds  []*Bound
	calls   []int32
	called  []Answer
	cres    []uint8
	errs    []error
	next    atomic.Int64
	wg      sync.WaitGroup
	answers []Answer // the assembled answers of a JSON or NDJSON response
	wreq    wire.Request
	wbuf    []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{byID: make(map[uint64]int32)}
}}

func getScratch() *scratch {
	return scratchPool.Get().(*scratch)
}

func putScratch(s *scratch) {
	if cap(s.items) > 1<<16 { // a pathological one-off batch shouldn't pin its arena
		return
	}
	scratchPool.Put(s)
}

// reset empties the batch for a request of n scenarios.
func (s *scratch) reset(n int) {
	if cap(s.items) < n {
		s.items = make([]item, 0, n)
	}
	s.items = s.items[:0]
	s.groups = s.groups[:0]
	clear(s.byID)
	s.wtab.reset()
}

// resize returns s resliced to length n, reallocated when too short.
// The contents are stale: callers overwrite every element they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
