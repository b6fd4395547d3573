package serve

import (
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestGroupMemoPerEntry: one triple under two registry entries is
// memoized per entry, so each entry keeps its own verdict however the
// requests interleave — a non-default variant falls back under the
// paper's fixed set and is answered in closed form by the calibrated
// one.
func TestGroupMemoPerEntry(t *testing.T) {
	s := testServer(t)
	const variant = `{"machine":"T3D","op":"broadcast","algorithm":"linear","p":8,"m":16}`
	for round := 0; round < 2; round++ {
		for _, tc := range []struct {
			query    string
			fallback bool
		}{
			{"registry=paper", true},
			{"registry=test-cal", false},
			{"", false},
		} {
			rec := post(t, s, variant, tc.query)
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d %q: status %d: %s", round, tc.query, rec.Code, rec.Body.String())
			}
			a := decode(t, rec).Answers[0]
			if a.Fallback != tc.fallback {
				t.Fatalf("round %d %q: fallback %v (%q), want %v", round, tc.query, a.Fallback, a.FallbackReason, tc.fallback)
			}
			if tc.fallback && !strings.Contains(a.FallbackReason, "vendor-default algorithms only") {
				t.Fatalf("round %d %q: fallback_reason %q", round, tc.query, a.FallbackReason)
			}
		}
	}
	b, err := s.resolveTriple("T3D", "broadcast", "linear")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]fallbackKind{"paper": fbVariant, "test-cal": fbNone} {
		e, err := s.registry().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		g := s.entryState(e).group(b.id)
		if g == nil || g.kind != want {
			t.Fatalf("%s memo for T3D/broadcast[linear]: %+v, want kind %d", name, g, want)
		}
	}
}

// TestGroupMemoFollowsReload: a reload swaps in an entry with another
// envelope, and the verdicts follow the new entry, not the memo of the
// old one, which the swap drops.
func TestGroupMemoFollowsReload(t *testing.T) {
	s, gen := reloadFixture(t)
	// m = 2048 lies outside lengths {16, 1024} and inside {16, 2048}.
	const body = `{"machine":"T3D","op":"broadcast","p":8,"m":2048}`
	for i := 0; i < 4; i++ {
		wantFallback := gen.Load()%2 == 0
		for pass := 0; pass < 2; pass++ {
			rec := post(t, s, body, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("generation %d: status %d: %s", gen.Load(), rec.Code, rec.Body.String())
			}
			a := decode(t, rec).Answers[0]
			if a.Fallback != wantFallback {
				t.Fatalf("generation %d pass %d: fallback %v (%q), want %v", gen.Load(), pass, a.Fallback, a.FallbackReason, wantFallback)
			}
			if wantFallback && !strings.Contains(a.FallbackReason, "outside the calibrated range") {
				t.Fatalf("generation %d: fallback_reason %q", gen.Load(), a.FallbackReason)
			}
		}
		old, err := s.registry().Get("test-cal")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReloadRegistry(); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.entries.Load(old); ok {
			t.Fatalf("generation %d: the replaced entry's memo survived the reload", gen.Load())
		}
	}
}

// TestWarmRequestBuildsNoGroup drives the evaluator's resolve and
// calibrate stages directly: a cold request builds its groups and
// precalibrates, an identical second request takes every group from
// the entry's memo and skips Precalibrate, in both the named (JSON,
// NDJSON) and binary resolve loops. A calibrated group whose scenarios
// all fell back is left unfitted and unpublished until a request
// answers it in closed form.
func TestWarmRequestBuildsNoGroup(t *testing.T) {
	s := testServer(t)
	entry, err := s.registry().Get("test-cal")
	if err != nil {
		t.Fatal(err)
	}
	es := s.entryState(entry)
	scns := []Scenario{
		{Machine: "T3D", Op: "broadcast", P: 8, M: 16},
		{Machine: "T3D", Op: "broadcast", P: 4, M: 1024},
		{Machine: "SP2", Op: "alltoall", P: 8, M: 16},
		{Machine: "T3D", Op: "broadcast", P: 8, M: 1 << 20}, // out of range
	}
	outOfRange := []Scenario{{Machine: "Paragon", Op: "gather", P: 8, M: 1 << 20}}
	inRange := []Scenario{{Machine: "Paragon", Op: "gather", P: 8, M: 16}}
	binary := func(scns []Scenario) func(scr *scratch) error {
		return func(scr *scratch) error {
			if err := scr.wreq.Decode(wireFrame("", scns, 1)); err != nil {
				return err
			}
			return s.resolveWire(es, entry, &scr.wreq, scr)
		}
	}
	named := func(scns []Scenario) func(scr *scratch) error {
		return func(scr *scratch) error { return s.resolveScenarios(es, entry, scns, scr) }
	}
	for _, step := range []struct {
		name          string
		resolve       func(scr *scratch) error
		n             int
		fresh, precal bool
	}{
		{"cold", named(scns), len(scns), true, true},
		{"warm named", named(scns), len(scns), false, false},
		{"warm binary", binary(scns), len(scns), false, false},
		{"all out of range", named(outOfRange), 1, true, false},
		{"still unpublished", binary(outOfRange), 1, true, false},
		{"first closed form", binary(inRange), 1, true, true},
		{"published", named(append(outOfRange, inRange...)), 2, false, false},
	} {
		scr := getScratch()
		scr.reset(step.n)
		if err := step.resolve(scr); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		for _, g := range scr.groups {
			if g.fresh != step.fresh {
				t.Fatalf("%s: group %s/%s fresh=%v, want %v", step.name, g.mach.Name(), g.op, g.fresh, step.fresh)
			}
		}
		if got := scr.calibrate(es, entry, 2); got != step.precal {
			t.Fatalf("%s: calibrate precalibrated=%v, want %v", step.name, got, step.precal)
		}
		putScratch(scr)
	}
}

// TestGroupMemoConcurrentCold: clients racing to build and publish the
// same entry's groups all get the answers a lone client gets.
func TestGroupMemoConcurrentCold(t *testing.T) {
	const batch = `[{"machine":"T3D","op":"broadcast","p":8,"m":16},
	                {"machine":"SP2","op":"alltoall","algorithm":"xor","p":4,"m":1024},
	                {"machine":"Paragon","op":"gather","p":8,"m":16},
	                {"machine":"T3D","op":"barrier","p":8,"m":0},
	                {"machine":"SP2","op":"scatter","p":8,"m":1 }]`
	want := post(t, testServer(t), batch, "").Body.String()
	s := testServer(t)
	const clients = 8
	got := make([]string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c] = post(t, s, batch, "").Body.String()
		}()
	}
	wg.Wait()
	for c, body := range got {
		if body != want {
			t.Fatalf("client %d:\n%s\nwant\n%s", c, body, want)
		}
	}
}
