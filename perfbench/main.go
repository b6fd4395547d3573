// Command perfbench is the repository benchmark. It drives the
// prediction service through its public Go surface (serve.Server,
// front.Front, estimate, sweep, wire and the sim kernel counters) on one
// of three seeded workloads, checks every answer against an in-process
// reference, and prints one JSON result object as its last line:
//
//	perfbench --workload grid-wire --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the named workload untraced and reports its
// end-to-end metrics. --trace 1 runs the traced pass instead: spans are
// recorded in memory around every layer call, written out at the end,
// and the per-layer metrics are reported. README.md describes the
// workloads, the metrics and the layer each one belongs to.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/sim"
)

// workRoot holds everything a run writes: temporary sweep caches and
// the span files of traced runs. It is relative to the working
// directory, which is the checkout the benchmark runs in.
const workRoot = ".bench_build/perfbench"

var workloads = map[string]func(*bench) (*result, error){
	"grid-wire":     gridWire,
	"mixed-open":    mixedOpen,
	"cold-validate": coldValidate,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "grid-wire, mixed-open or cold-validate")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs and of the simulation methodology")
		seconds  = flag.Float64("seconds", 10, "seconds of measurement")
		trace    = flag.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs the traced pass and reports the per-layer metrics")
	)
	flag.Parse()
	measureWorkload, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want grid-wire, mixed-open or cold-validate)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	// The kernel counters feed the sim.* layer metrics; cmd/serve runs
	// with them on as well.
	sim.EnableCounters(true)
	b := &bench{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		dir:      dir,
		rng:      rand.New(rand.NewSource(*seed)),
	}
	var res *result
	if *trace == 1 {
		res, err = tracedPass(b, filepath.Join(workRoot, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed)))
	} else {
		res, err = measureWorkload(b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is one invocation's settings and input generator.
type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	dir      string
	rng      *rand.Rand
}

func runtimeSys() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys
}
