package repro_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/coll"
	"repro/internal/estimate"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The determinism suite proves the cold-path optimizations changed
// nothing but speed: sweep output and calibrated fits are byte-identical
// across worker counts AND against goldens in testdata/ captured from
// the pre-optimization engine — so they also prove that every
// optimization since (the direct-switch kernel, opaque payloads,
// measurement memoization, parallel calibration) changed nothing but
// speed.
//
// -update rewrites both goldens instead of comparing against them:
//
//	go test . -run MatchesSeed -update
//
// REGENERATING THEM FORFEITS THAT PROTECTION — only do it when the
// measured physics (machine presets, methodology, algorithms) changes
// on purpose.
var update = flag.Bool("update", false,
	"rewrite testdata/golden_*; forfeits the pre-optimization pin, so only after an intended physics change")

var workerCounts = []int{1, 4, 8}

// The simulator's work on the golden grid, per full pass: executed
// kernel events and process wakeups. Byte-identical output can hide a
// kernel that does more work to produce it; these counts cannot. A
// change that moves them on purpose restates them here. Wakeups fell
// from 1 226 461 when blocked receives and rendezvous sends began
// finishing their kernel-side step in a handler and waking the rank
// once; the events, and every byte of output, stayed the same.
const (
	goldenEvents  = 1626177
	goldenWakeups = 0
)

// goldenSpec is the fixed grid the goldens pin down: every machine,
// operation, and algorithm variant at two machine sizes and three
// message lengths — small enough to simulate in tests, wide enough to
// cross every collective code path.
func goldenSpec() sweep.Spec {
	return sweep.Spec{
		Algorithms: sweep.AllAlgorithms(machine.Ops),
		Sizes:      []int{8, 32},
		Lengths:    []int{4, 1024, 65536},
		Config:     measure.Fast(),
	}
}

// goldenCalibrated returns a calibrated backend over the golden grid.
func goldenCalibrated() *estimate.Calibrated {
	spec := goldenSpec()
	return &estimate.Calibrated{Config: spec.Config, Sizes: spec.Sizes, Lengths: spec.Lengths,
		Memo: estimate.NewSampleMemo()}
}

// goldenTriples enumerates every (machine, op, algorithm) calibration
// triple of the golden set, including the "default" alias.
func goldenTriples() []estimate.Triple {
	var out []estimate.Triple
	for _, mach := range machine.All() {
		for _, op := range machine.Ops {
			algs := append([]string{sweep.DefaultAlgorithm}, coll.Algorithms(string(op))...)
			if op == machine.OpBarrier && mach.HardwareBarrier() {
				algs = append(algs, coll.AlgHardware)
			}
			sort.Strings(algs)
			for _, alg := range algs {
				out = append(out, estimate.Triple{Machine: mach, Op: op, Alg: alg})
			}
		}
	}
	return out
}

// goldenExpressions fits every golden triple on c, keyed
// "machine/op/alg".
func goldenExpressions(c *estimate.Calibrated) map[string]fit.Expression {
	out := map[string]fit.Expression{}
	for _, tr := range goldenTriples() {
		out[fmt.Sprintf("%s/%s/%s", tr.Machine.Name(), tr.Op, tr.Alg)] = c.Expression(tr.Machine, tr.Op, tr.Alg)
	}
	return out
}

// golden returns the committed golden testdata/name, or — under
// -update — writes got there and returns it.
func golden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return got
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test . -run MatchesSeed -update`): %v", err)
	}
	return blob
}

// TestSweepMatchesSeedAcrossWorkers runs the golden grid through the
// sim backend at several worker counts; every run must render byte-for-
// byte to the pre-optimization golden report, and every run must cost
// the simulator exactly the pinned events and wakeups.
func TestSweepMatchesSeedAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the golden grid several times")
	}
	scns, err := goldenSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	sim.EnableCounters(true)
	defer sim.EnableCounters(false)
	var want []byte
	for i, w := range workerCounts {
		events, wakeups := sim.KernelEvents(), sim.KernelWakeups()
		runner := &sweep.Runner{Workers: w, Backend: estimate.Sim{Memo: estimate.NewSampleMemo()}}
		results := runner.Run(scns)
		events, wakeups = sim.KernelEvents()-events, sim.KernelWakeups()-wakeups

		var got bytes.Buffer
		title := fmt.Sprintf("Determinism golden — %d scenarios (sim backend)", len(results))
		if err := sweep.WriteMarkdown(&got, title, results); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = golden(t, "golden_sweep_sim.md", got.Bytes())
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("workers=%d: sweep output diverged from the seed golden (len %d vs %d)",
				w, got.Len(), len(want))
		}
		if events != goldenEvents || wakeups != goldenWakeups {
			t.Errorf("workers=%d: %d scenarios cost %d events and %d wakeups, want %d and %d",
				w, len(scns), events, wakeups, goldenEvents, goldenWakeups)
		}
	}
}

// TestCalibrationMatchesSeedAcrossWorkers precalibrates every golden
// triple through pools of several sizes; the fitted expressions must
// serialize byte-for-byte to the pre-optimization golden file.
func TestCalibrationMatchesSeedAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates the golden triples several times")
	}
	var want []byte
	for i, w := range workerCounts {
		c := goldenCalibrated()
		c.Precalibrate(goldenTriples(), w)
		got, err := json.MarshalIndent(goldenExpressions(c), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if i == 0 {
			want = golden(t, "golden_expressions.json", got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: calibrated expressions diverged from the seed golden", w)
		}
	}
}

// TestDefaultAliasSharesCalibration pins the memoization contract: the
// "default" triple resolves to the vendor variant and reuses its
// calibration instead of re-measuring.
func TestDefaultAliasSharesCalibration(t *testing.T) {
	c := goldenCalibrated()
	mach := machine.SP2()
	_ = c.Expression(mach, "broadcast", "binomial") // vendor default for bcast
	n := c.Memo.Len()
	if n == 0 {
		t.Fatal("calibration measured nothing")
	}
	_ = c.Expression(mach, "broadcast", "default")
	if got := c.Memo.Len(); got != n {
		t.Fatalf("default alias re-measured: memo grew %d -> %d", n, got)
	}
}
