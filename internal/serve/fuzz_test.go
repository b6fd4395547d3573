package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"
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
