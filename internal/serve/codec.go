package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"sync"

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
	w.Header().Set("Content-Type", ctNDJSON)
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// writeWire encodes the binary response into the scratch buffer (grown
// once, reused across requests) and writes it in one call.
func writeWire(w http.ResponseWriter, scr *scratch, registry, backend, provenance string, answers []Answer) {
	b := wire.AppendResponseHeader(scr.wbuf[:0], registry, backend, provenance, len(answers))
	for i := range answers {
		a := &answers[i]
		wa := wire.Answer{Micros: a.Micros, Fallback: a.Fallback, FallbackReason: a.FallbackReason}
		if a.ExpectedError != nil {
			wa.HasBound = true
			wa.Bound = wire.Bound{
				RelMedian: a.ExpectedError.RelMedian, RelMax: a.ExpectedError.RelMax,
				BasisM: a.ExpectedError.BasisM, Points: a.ExpectedError.Points,
				SegmentMMin: a.ExpectedError.SegmentMMin, SegmentMMax: a.ExpectedError.SegmentMMax,
			}
		}
		b = wire.AppendAnswer(b, wa)
	}
	scr.wbuf = b
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(b)
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
// groups, and the lookups that build them), answers, cache verdicts,
// the decoded binary frame, and the binary encode buffer — pooled so a
// steady request stream stops allocating per request on every codec
// path. Slices are resliced and fully overwritten each use.
type scratch struct {
	items   []item
	groups  []group
	byID    map[uint64]int32  // binding id → group index
	byWire  map[uint64]int32  // binary string-table index triple → group index
	precal  []estimate.Triple // the request's closed-form triples
	fb      []int32           // indexes of the fallback items
	answers []Answer
	cres    []uint8
	errs    []error
	wreq    wire.Request
	wbuf    []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{byID: make(map[uint64]int32), byWire: make(map[uint64]int32)}
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
	clear(s.byWire)
}

func (s *scratch) answerSlice(n int) []Answer {
	if cap(s.answers) < n {
		s.answers = make([]Answer, n)
	}
	s.answers = s.answers[:n]
	return s.answers
}

func (s *scratch) cacheSlice(n int) []uint8 {
	if cap(s.cres) < n {
		s.cres = make([]uint8, n)
	}
	s.cres = s.cres[:n]
	return s.cres
}

// errSlice returns the per-scenario error slice, cleared: unlike the
// other scratch slices it is sparsely written (most scenarios succeed),
// so stale pooled values must be zeroed.
func (s *scratch) errSlice(n int) []error {
	if cap(s.errs) < n {
		s.errs = make([]error, n)
		return s.errs
	}
	s.errs = s.errs[:n]
	for i := range s.errs {
		s.errs[i] = nil
	}
	return s.errs
}
