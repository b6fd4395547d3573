package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/measure"
)

// dirNames lists the files in dir, in name order.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = f.Name()
	}
	return names
}

// TestRunnerCacheWriteBudget pins the cold path's file writes: a cold
// Run leaves at most four sample segments per worker and nothing else —
// no per-key sample files, no temp files — and a warm rerun is all
// hits and writes nothing.
func TestRunnerCacheWriteBudget(t *testing.T) {
	scns := testScenarios(t)
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		cold := (&Runner{Workers: workers, Cache: cache}).Run(scns)
		names := dirNames(t, dir)
		lines := 0
		for _, name := range names {
			if !strings.HasSuffix(name, segSuffix) {
				t.Fatalf("workers=%d: cold run left %q, which is not a sample segment", workers, name)
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(data, []byte("\n"))
		}
		if len(names) == 0 || len(names) > 4*workers {
			t.Fatalf("workers=%d: cold run wrote %d segments, want 1..%d", workers, len(names), 4*workers)
		}
		if lines != len(scns) {
			t.Fatalf("workers=%d: segments hold %d samples, want %d", workers, lines, len(scns))
		}

		warm := (&Runner{Workers: workers, Cache: cache}).Run(scns)
		for i, r := range warm {
			if !r.Cached || r.Sample != cold[i].Sample {
				t.Fatalf("workers=%d: %s: warm result %+v, want a hit on %+v", workers, r.Scenario.ID(), r, cold[i].Sample)
			}
		}
		if after := dirNames(t, dir); !reflect.DeepEqual(after, names) {
			t.Fatalf("workers=%d: warm run changed the directory: %v -> %v", workers, names, after)
		}
	}
}

// TestRunnerSharedCacheDir runs two Runners, with different worker
// counts and their own Cache handles, concurrently on one directory.
// Both must return the same samples, and a third warm run must return
// exactly what a run without a cache does.
func TestRunnerSharedCacheDir(t *testing.T) {
	scns := testScenarios(t)
	dir := t.TempDir()
	var wg sync.WaitGroup
	out := make([][]Result, 2)
	for i, workers := range []int{1, 3} {
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = (&Runner{Workers: workers, Cache: cache}).Run(scns)
		}()
	}
	wg.Wait()
	for i := range scns {
		if out[0][i].Scenario != out[1][i].Scenario || out[0][i].Sample != out[1][i].Sample {
			t.Fatalf("%s: concurrent runners disagree: %+v vs %+v", scns[i].ID(), out[0][i], out[1][i])
		}
	}

	plain := (&Runner{Workers: 2}).Run(scns)
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := (&Runner{Workers: 2, Cache: cache}).Run(scns)
	for i, r := range warm {
		if !r.Cached {
			t.Fatalf("%s: not cached after two runs", r.Scenario.ID())
		}
		r.Cached = false
		if r != plain[i] {
			t.Fatalf("%s: warm %+v, uncached %+v", r.Scenario.ID(), r, plain[i])
		}
	}
	for _, name := range dirNames(t, dir) {
		if !strings.HasSuffix(name, segSuffix) {
			t.Fatalf("shared directory holds %q, which is not a sample segment", name)
		}
	}
}

// keyField finds key-like strings anywhere in the input, well-formed
// or not, to probe lookups with keys the input only appears to carry.
var keyField = regexp.MustCompile(`"key"\s*:\s*"([^"\\]*)"`)

// FuzzCacheSegment writes arbitrary bytes as a segment: reading it must
// never panic and never serve a key, or a sample, that no well-formed
// line of the input carries.
func FuzzCacheSegment(f *testing.F) {
	s := measure.Sample{Machine: "T3D", Op: machine.OpAlltoall, P: 8, M: 256, Micros: 41.25, MaxMicros: 50}
	var good bytes.Buffer
	for _, k := range []string{"a1", "b2"} {
		line, err := json.Marshal(entry{Key: k, ID: "T3D/alltoall", Sample: s})
		if err != nil {
			f.Fatal(err)
		}
		good.Write(append(line, '\n'))
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()/2])
	f.Add([]byte("{not json\n\x00\xff\n"))
	f.Add([]byte(`{"key":"a1","sample":{"Micros":1}}{"key":"b2"}` + "\n"))
	f.Add([]byte(`{"key":"a1","key":"b2","sample":{"Micros":2}}` + "\r\n" + `{"key":"c3"} x`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz"+segSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		carried := map[string][]measure.Sample{}
		for _, line := range bytes.Split(data, []byte("\n")) {
			var e entry
			if json.Unmarshal(line, &e) == nil {
				carried[e.Key] = append(carried[e.Key], e.Sample)
			}
		}
		probes := []string{"", "a1", "b2", "c3"}
		for k := range carried {
			probes = append(probes, k)
		}
		for _, m := range keyField.FindAllSubmatch(data, -1) {
			probes = append(probes, string(m[1]))
		}
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		for k, got := range cache.lookup(probes) {
			ok := false
			for _, want := range carried[k] {
				ok = ok || got == want
			}
			if !ok {
				t.Fatalf("served key %q with %+v; well-formed lines carry %+v", k, got, carried[k])
			}
		}
	})
}
