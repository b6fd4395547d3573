package sweep

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// segmentsDigest hashes a cache directory's segment names and contents,
// in name order.
func segmentsDigest(t *testing.T, dir string) (string, int) {
	t.Helper()
	h := sha256.New()
	names := dirNames(t, dir)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %x\n", name, sha256.Sum256(data))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), len(names)
}

// TestRunnerDefaultGridAcrossWorkerCounts runs the default grid at 1, 2
// and 8 workers. Results must be identical, OnProgress must fire once
// per scenario, and at 2 workers the cache directory must hold the same
// segment files, names and bytes, as the span-per-work-item runner that
// preceded per-scenario claims wrote: wantSegments and wantDigest were
// recorded from it.
func TestRunnerDefaultGridAcrossWorkerCounts(t *testing.T) {
	const (
		wantSegments = 8
		wantDigest   = "890bc59c478362f5c460fbb2250f6d28bdf3db7c9c00f3c8742a474f0a36b2de"
	)
	scns, err := Spec{Config: tinyCfg}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var base []Result
	for _, workers := range []int{1, 2, 8} {
		seen := make([]int, len(scns))
		byID := make(map[string]int, len(scns))
		for i, sc := range scns {
			byID[sc.ID()] = i
		}
		calls := 0
		r := &Runner{Workers: workers, OnProgress: func(p Progress) {
			calls++
			seen[byID[p.Scenario.ID()]]++
			if p.Done != calls || p.Total != len(scns) {
				t.Errorf("workers=%d: progress %d/%d on call %d", workers, p.Done, p.Total, calls)
			}
		}}
		dir := t.TempDir()
		if workers == 2 {
			if r.Cache, err = OpenCache(dir); err != nil {
				t.Fatal(err)
			}
		}
		got := r.Run(scns)
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: %s reported %d times", workers, scns[i].ID(), n)
			}
		}
		if base == nil {
			base = got
		} else if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: results differ from 1 worker", workers)
		}
		if workers == 2 {
			digest, n := segmentsDigest(t, dir)
			t.Logf("%d segments, digest %s", n, digest)
			if n != wantSegments || digest != wantDigest {
				t.Errorf("2 workers wrote %d segments with digest %s, want %d with %s", n, digest, wantSegments, wantDigest)
			}
		}
	}
}
