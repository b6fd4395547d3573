// Command predict evaluates closed-form timing expressions analytically
// — the use the paper proposes for them: estimating communication
// overhead, ranking machines, and locating crossovers without running
// anything. The expression set comes from the same named registry the
// HTTP service (cmd/serve) resolves against: the paper's published
// Table 3, or expressions recalibrated from the simulator, optionally
// persisted in a sweep cache directory so recalibration happens once.
//
// Usage:
//
//	predict -op alltoall -p 64 -m 512
//	predict -op broadcast -p 32 -m 65536 -crossover SP2,Paragon
//	predict -registry refit-default -cache .sweepcache -op alltoall -p 64 -m 512
//	predict -registry refit-piecewise -op scatter -p 32 -m 1024
//	predict -list-registries
//
// With -remote, predict asks a running cmd/serve instance instead —
// over the binary fast wire codec by default — and doubles as the
// service's load generator:
//
//	predict -remote http://localhost:8080 -op alltoall -p 64 -m 512
//	predict -remote http://localhost:8080 -grid -repeat 100   # 788-scenario batches
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sweep"
)

func main() {
	var (
		opName    = flag.String("op", "alltoall", "collective operation")
		p         = flag.Int("p", 64, "machine size (nodes)")
		m         = flag.Int("m", 1024, "message length per node pair (bytes)")
		crossover = flag.String("crossover", "", "pair \"A,B\": message size where B overtakes A")
		registryF = flag.String("registry", "", `expression set from the registry (see -list-registries); "" = paper-table3 locally, the server's default with -remote`)
		cacheDir  = flag.String("cache", "", "sweep cache directory persisting calibrated expressions")
		listReg   = flag.Bool("list-registries", false, "list the named expression sets and exit")
		remote    = flag.String("remote", "", "ask a running serve instance at this base URL instead of evaluating locally")
		codec     = flag.String("codec", "binary", `remote request codec: "binary" (fast wire mode) or "json"`)
		repeat    = flag.Int("repeat", 1, "remote only: send the batch this many times (load generation)")
		grid      = flag.Bool("grid", false, "remote only: send the full default sweep grid instead of one scenario per machine")
		timeout   = flag.Duration("timeout", 0, "remote only: per-request timeout (0 = none)")
		retries   = flag.Int("retries", 3, "remote only: retry budget per request for transient failures (connect errors, 5xx, 429)")
		traceID   = flag.String("trace-id", "", "remote only: X-Trace-Id sent on every request (\"\" generates one per run), correlating client retries with server-side logs and /debug/traces")
	)
	flag.Parse()

	if *remote != "" {
		os.Exit(runRemote(remoteOpts{
			URL: *remote, Registry: *registryF, Codec: *codec, Op: *opName,
			P: *p, M: *m, Repeat: *repeat, Grid: *grid,
			Timeout: *timeout, Retries: *retries, TraceID: *traceID,
		}))
	}

	reg, err := registry(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predict:", err)
		os.Exit(2)
	}
	if *listReg {
		fmt.Println("expression-set registries:")
		for _, e := range reg.Entries() {
			fmt.Printf("  %-16s %s\n", e.Name, e.Description)
		}
		return
	}

	op, err := estimate.ResolveOp(*opName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predict:", err)
		os.Exit(2)
	}
	pr, entry, err := predictor(reg, *registryF, op)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predict:", err)
		os.Exit(2)
	}

	msg := *m
	if op == machine.OpBarrier {
		msg = 0
	}
	// Rank evaluates every machine, so the expression set must cover
	// them all; the paper's table has no allgather/allreduce rows, for
	// example, while the refit registries cover every operation.
	for _, mach := range pr.Machines() {
		if _, ok := pr.Expression(mach, op); !ok {
			fmt.Fprintf(os.Stderr, "predict: the %s expression set has no %s/%s entry (try -registry refit-default)\n",
				entry.Name, mach, op)
			os.Exit(2)
		}
	}
	fmt.Printf("%s  p=%d  m=%d bytes (%s: %s)\n", op, *p, msg, entry.Name, entry.Description)
	for _, mach := range pr.Rank(op, msg, *p) {
		e, _ := pr.Expression(mach, op)
		fmt.Printf("  %-8s T=%12.1f µs   T0=%10.1f µs   R∞=%8.0f MB/s   %s\n",
			mach, pr.Time(mach, op, msg, *p), pr.Startup(mach, op, *p),
			pr.Bandwidth(mach, op, *p), e)
	}

	if *crossover != "" {
		parts := strings.SplitN(*crossover, ",", 2)
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "predict: -crossover wants \"A,B\"")
			os.Exit(2)
		}
		a, b := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		if at, ok := pr.Crossover(a, b, op, *p, 4, 1<<20); ok {
			fmt.Printf("crossover: %s overtakes %s at m ≈ %d bytes (p=%d)\n", b, a, at, *p)
		} else {
			fmt.Printf("crossover: %s never overtakes %s for m ≤ 1 MB (p=%d)\n", b, a, *p)
		}
	}
}

// registry assembles the standard expression-set registry, backed by
// the cache directory when one is given — the same resolution path the
// HTTP service uses.
func registry(cacheDir string) (*estimate.Registry, error) {
	cache, err := sweep.OpenCache(cacheDir)
	if err != nil {
		return nil, err
	}
	cfg := estimate.RegistryConfig{}
	if cache != nil {
		cfg.Store = cache
	}
	return estimate.StandardRegistry(cfg), nil
}

// predictor resolves the requested registry entry ("" meaning
// paper-table3) and exports its expressions as a predictor.
func predictor(reg *estimate.Registry, name string, op machine.Op) (*model.Predictor, *estimate.Entry, error) {
	if name == "" {
		name = "paper-table3"
	}
	entry, err := reg.Get(name)
	if err != nil {
		return nil, nil, err
	}
	if _, isCal := entry.Backend.(*estimate.Calibrated); isCal {
		fmt.Fprintln(os.Stderr, "predict: calibrating from the simulator (cached fits are reused) ...")
	}
	pr, ok := entry.Predictor(machine.All(), []machine.Op{op})
	if !ok {
		return nil, nil, fmt.Errorf("registry %q has no closed-form expressions to evaluate", name)
	}
	return pr, entry, nil
}
