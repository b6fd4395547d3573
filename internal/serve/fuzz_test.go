package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/serve/wire"
)

// jsonFuzzSeeds are request bodies in each shape ParseJSONRequest
// accepts — the handler goldens' batches, the single-scenario
// shorthand and the envelope — plus p and m just below and above each
// size-class threshold of the wire codec's length headers, the idiom of
// the wire decoder's own threshold tests.
func jsonFuzzSeeds() []string {
	seeds := []string{
		`[{"machine":"T3D","op":"broadcast","p":8,"m":16},
		  {"machine":"T3D","op":"broadcast","p":4,"m":300},
		  {"machine":"T3D","op":"broadcast","p":8,"m":65536},
		  {"machine":"SP2","op":"alltoall","algorithm":"xor","p":4,"m":1024},
		  {"machine":"T3D","op":"barrier","algorithm":"hardware","p":8,"m":0}]`,
		`[{"machine":"T3D","op":"broadcast","p":8,"m":1024},
		  {"machine":"T3D","op":"broadcast","p":32,"m":4096},
		  {"machine":"T3D","op":"scatter","algorithm":"linear","p":32,"m":256},
		  {"machine":"T3D","op":"broadcast","p":8,"m":3000},
		  {"machine":"T3D","op":"scatter","p":8,"m":262144}]`,
		`{"machine":"T3D","op":"broadcast","p":8,"m":1024}`,
		`{"registry":"paper-table3","scenarios":[{"machine":"SP2","op":"alltoall","p":32,"m":1024}]}`,
		`{"registry":"refit-default","scenarios":[],"machine":"Paragon","op":"gather","p":8,"m":16}`,
		`[]`, `{}`, `null`, `[null]`, ` [ ] `, `{"scenarios":null}`,
	}
	for _, v := range []int64{
		0, 1, 0x3e, 0x3f, 0x40, 0x41, 0x3ffe, 0x3fff, 0x4000, 0x4001,
		0x3ffffffe, 0x3fffffff, 0x40000000, 0x40000001, math.MaxInt32, math.MaxInt64, -1,
	} {
		seeds = append(seeds, fmt.Sprintf(`[{"machine":"SP2","op":"alltoall","p":%d,"m":%d}]`, v, v))
	}
	return seeds
}

// FuzzParseJSONRequest: no body panics the JSON request parser, and any
// body it accepts re-marshals — as the envelope — to a request that
// parses back to the same registry and scenarios.
func FuzzParseJSONRequest(f *testing.F) {
	for _, s := range jsonFuzzSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		registry, scns, err := ParseJSONRequest(body)
		if err != nil {
			return
		}
		again, err := json.Marshal(struct {
			Registry  string     `json:"registry"`
			Scenarios []Scenario `json:"scenarios"`
		}{registry, scns})
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		registry2, scns2, err := ParseJSONRequest(again)
		if err != nil {
			t.Fatalf("re-marshaled request %s does not parse: %v", again, err)
		}
		if registry2 != registry || !slices.Equal(scns2, scns) {
			t.Fatalf("round trip changed the request:\n %q %+v\n %q %+v", registry, scns, registry2, scns2)
		}
	})
}

// FuzzParseNDJSON: no body panics the NDJSON parser, and any body it
// accepts re-marshals, one scenario per line, to a body that parses
// back to the same scenarios.
func FuzzParseNDJSON(f *testing.F) {
	for _, s := range jsonFuzzSeeds() {
		f.Add([]byte(s))
	}
	f.Add([]byte("{\"machine\":\"T3D\",\"op\":\"broadcast\",\"p\":8,\"m\":16}\n\n  \r\n{\"machine\":\"SP2\",\"op\":\"alltoall\",\"algorithm\":\"xor\",\"p\":4,\"m\":1024}"))
	f.Add([]byte("{\"machine\":\"T3D\",\"op\":\"broadcast\",\"p\":8,\"m\":16}\n{oops\n"))
	f.Add([]byte("null\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		scns, err := ParseNDJSON(body)
		if err != nil {
			return
		}
		var again []byte
		for _, sc := range scns {
			line, err := json.Marshal(sc)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			again = append(append(again, line...), '\n')
		}
		scns2, err := ParseNDJSON(again)
		if err != nil {
			t.Fatalf("re-marshaled body %q does not parse: %v", again, err)
		}
		if !slices.Equal(scns2, scns) {
			t.Fatalf("round trip changed the scenarios:\n %+v\n %+v", scns, scns2)
		}
	})
}

// fuzzSim stands in for the fallback simulator under the wire fuzzer,
// which reaches any (p, m): a real simulation of the largest would take
// seconds. Its answers are deterministic, so both codecs see the same.
type fuzzSim struct{}

func (fuzzSim) Name() string       { return "sim" }
func (fuzzSim) Provenance() string { return "fuzz" }
func (fuzzSim) Estimate(_ context.Context, _ *machine.Machine, _ machine.Op, _ mpi.Algorithms, p, m int, _ measure.Config) (estimate.Estimate, error) {
	return estimate.Estimate{Sample: measure.Sample{Micros: float64(p)*1e3 + float64(m)}, Backend: "sim"}, nil
}

// wireFrameValid reports whether the server should answer a decoded
// frame 200: a known registry, 1 to MaxBatch records, and every record
// naming a known triple with p in [2, the machine's nodes] and m (0 for
// a barrier) within the service cap — worked out from the estimate
// package's resolvers, not the handler's code.
func wireFrameValid(s *Server, req *wire.Request) bool {
	regName := req.Registry
	if regName == "" {
		regName = s.Default
	}
	if _, err := s.registry().Get(regName); err != nil || len(req.Records) == 0 || len(req.Records) > s.maxBatch() {
		return false
	}
	for _, rec := range req.Records {
		mach, err := estimate.ResolveMachine(req.Table[rec.Mach])
		if err != nil {
			return false
		}
		op, err := estimate.ResolveOp(req.Table[rec.Op])
		if err != nil {
			return false
		}
		if _, err := estimate.ResolveAlgorithm(mach, op, req.Table[rec.Alg]); err != nil {
			return false
		}
		m := rec.M
		if op == machine.OpBarrier {
			m = 0
		}
		if rec.P < 2 || rec.P > mach.MaxNodes() || m > s.maxMessage() {
			return false
		}
	}
	return true
}

// FuzzServeWireFrame posts arbitrary bytes to the handler as a binary
// request. Nothing panics; the answer is 200 exactly when the frame
// decodes and every scenario is valid, else 400; and a 200's envelope
// and answers equal the JSON path's for the decoded scenarios.
func FuzzServeWireFrame(f *testing.F) {
	valid := []Scenario{
		{Machine: "T3D", Op: "broadcast", P: 8, M: 16},
		{Machine: "T3D", Op: "broadcast", P: 4, M: 300},
		{Machine: "T3D", Op: "broadcast", P: 8, M: 65536}, // out of range
		{Machine: "SP2", Op: "alltoall", Algorithm: "xor", P: 4, M: 1024},
		{Machine: "T3D", Op: "barrier", Algorithm: "hardware", P: 8, M: 77},
		{Machine: "Paragon", Op: "gather", Algorithm: "default", P: 128, M: 1 << 20},
	}
	f.Add(wireFrame("", valid, 1))
	f.Add(wireFrame("", valid, 2))
	f.Add(wireFrame("paper", valid, len(valid)))
	f.Add(wireFrame("nope", valid, 1))
	// Each (p, m) check at its edge, after a valid record of the triple.
	for _, sc := range []Scenario{
		{Machine: "T3D", Op: "broadcast", P: 1, M: 16},
		{Machine: "T3D", Op: "broadcast", P: 2, M: 16},
		{Machine: "T3D", Op: "broadcast", P: 64, M: 16},
		{Machine: "T3D", Op: "broadcast", P: 65, M: 16},
		{Machine: "T3D", Op: "broadcast", P: 8, M: 16 << 20},
		{Machine: "T3D", Op: "broadcast", P: 8, M: 16<<20 + 1},
		{Machine: "T3D", Op: "barrier", P: 8, M: 16<<20 + 1},
	} {
		f.Add(wireFrame("", append(valid[:2:2], sc), 1))
	}
	f.Add(wireFrame("", nil, 1))
	f.Add([]byte{})
	f.Add([]byte("not a frame"))
	s := testServer(f)
	s.Sim = fuzzSim{}
	h := s.Handler()
	serve := func(ct string, body []byte) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
		r.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(wire.ContentType, body)
		var req wire.Request
		want := http.StatusBadRequest
		if req.Decode(body) == nil && wireFrameValid(s, &req) {
			want = http.StatusOK
		}
		if rec.Code != want {
			t.Fatalf("status %d, want %d: %s", rec.Code, want, rec.Body.Bytes())
		}
		if want != http.StatusOK {
			return
		}
		var got wire.Response
		if err := got.Decode(rec.Body.Bytes()); err != nil {
			t.Fatalf("undecodable 200 body: %v", err)
		}
		scns := make([]Scenario, len(req.Records))
		for i, r := range req.Records {
			scns[i] = Scenario{Machine: req.Table[r.Mach], Op: req.Table[r.Op], Algorithm: req.Table[r.Alg], P: r.P, M: r.M}
		}
		js, err := json.Marshal(struct {
			Registry  string     `json:"registry"`
			Scenarios []Scenario `json:"scenarios"`
		}{req.Registry, scns})
		if err != nil {
			t.Fatal(err)
		}
		jrec := serve(ctJSON, js)
		if jrec.Code != http.StatusOK {
			t.Fatalf("JSON path: status %d: %s", jrec.Code, jrec.Body.Bytes())
		}
		var jresp Response
		if err := json.Unmarshal(jrec.Body.Bytes(), &jresp); err != nil {
			t.Fatal(err)
		}
		if got.Registry != jresp.Registry || got.Backend != jresp.Backend || got.Provenance != jresp.Provenance || len(got.Answers) != len(jresp.Answers) {
			t.Fatalf("envelope %q/%q/%q with %d answers, JSON %q/%q/%q with %d",
				got.Registry, got.Backend, got.Provenance, len(got.Answers), jresp.Registry, jresp.Backend, jresp.Provenance, len(jresp.Answers))
		}
		for i, wa := range got.Answers {
			ja := jresp.Answers[i]
			a := Answer{Scenario: ja.Scenario, Backend: ja.Backend, Micros: wa.Micros, Fallback: wa.Fallback, FallbackReason: wa.FallbackReason}
			if wa.HasBound {
				b := Bound(wa.Bound)
				a.ExpectedError = &b
			}
			if !sameAnswer(a, ja) {
				t.Fatalf("answer %d: binary %+v %+v, JSON %+v %+v", i, a, a.ExpectedError, ja, ja.ExpectedError)
			}
		}
	})
}
