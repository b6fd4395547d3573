package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// span is one timed interval of a traced request. Spans of one request
// share its X-Trace-Id; Parent is the ID of the innermost enclosing span
// of a higher layer (0 for the client span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layerOf orders span names from the outside in; a span's parent is
// the innermost span of a lower layer that contains it.
var layerOf = map[string]int{
	"client": 0, "front": 1, "front.subrequest": 2, "worker": 3,
	"serve.decode": 4, "serve.resolve": 4, "serve.calibrate": 4, "serve.fanout": 4, "serve.encode": 4,
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(trace, name string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{Trace: trace, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	l.mu.Unlock()
}

// addStages turns a worker's sampled trace record into stage spans laid
// end to end from the record's start: decode, resolve and calibrate,
// then the scenario fan-out (estimate and bounds run in parallel
// there), then encode.
func (l *spanLog) addStages(rec obs.TraceRecord) {
	t := time.Unix(0, rec.StartUnixNano)
	end := t.Add(time.Duration(rec.DurationNS))
	for _, st := range []string{"decode", "resolve", "calibrate"} {
		next := t.Add(time.Duration(rec.Stages[st]))
		l.add(rec.TraceID, "serve."+st, t, next)
		t = next
	}
	enc := end.Add(-time.Duration(rec.Stages["encode"]))
	l.add(rec.TraceID, "serve.fanout", t, enc)
	l.add(rec.TraceID, "serve.encode", enc, end)
}

// byTrace numbers the spans, links each to its parent, and groups them
// by trace ID.
func (l *spanLog) byTrace() map[string][]span {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.SliceStable(l.spans, func(i, j int) bool { return l.spans[i].Start < l.spans[j].Start })
	out := map[string][]span{}
	for i := range l.spans {
		l.spans[i].ID = i + 1
		out[l.spans[i].Trace] = append(out[l.spans[i].Trace], l.spans[i])
	}
	for id, ss := range out {
		for i := range ss {
			best := -1
			for j := range ss {
				if layerOf[ss[j].Name] < layerOf[ss[i].Name] && ss[j].Start <= ss[i].Start && ss[j].End >= ss[i].End &&
					(best < 0 || layerOf[ss[j].Name] > layerOf[ss[best].Name] ||
						layerOf[ss[j].Name] == layerOf[ss[best].Name] && ss[j].dur() < ss[best].dur()) {
					best = j
				}
			}
			if best >= 0 {
				ss[i].Parent = ss[best].ID
			}
		}
		out[id] = ss
	}
	return out
}

// write emits every span as one JSON line.
func (l *spanLog) write(path string, traces map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	ids := make([]string, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, s := range traces[id] {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		if c.Parent == s.ID {
			ivs = append(ivs, iv{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := int64(0), s.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return s.dur() - time.Duration(covered)
}

// spanHandler wraps a handler in a span named name.
func spanHandler(l *spanLog, name string) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			next.ServeHTTP(w, r)
			l.add(r.Header.Get(serve.TraceIDHeader), name, start, time.Now())
		})
	}
}

// spanTransport records one span per round trip, ending when the
// caller closes the response body (after reading it).
type spanTransport struct {
	log   *spanLog
	inner http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.log.add(req.Header.Get(serve.TraceIDHeader), "front.subrequest", start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		t.log.add(req.Header.Get(serve.TraceIDHeader), "front.subrequest", start, time.Now())
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
