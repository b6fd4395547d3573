package estimate

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
)

// Estimate is one predicted or measured collective timing, tagged with
// the backend that produced it. For measured (sim) estimates the Sample
// carries the paper's full statistics; closed-form backends fill every
// statistic with the single predicted value.
type Estimate struct {
	Sample  measure.Sample
	Backend string // Name() of the producing backend
}

// Micros returns the headline time in µs.
func (e Estimate) Micros() float64 { return e.Sample.Micros }

// Backend is a pluggable estimation strategy. Implementations must be
// safe for concurrent use: the sweep engine calls Estimate from many
// worker goroutines.
type Backend interface {
	// Name is the stable backend identity ("sim", "analytic",
	// "calibrated") used in reports and cache keys.
	Name() string
	// Provenance identifies the data the backend's numbers derive from
	// (e.g. an expression-set or calibration-spec hash). It is folded
	// into sweep-cache keys together with Name, so results from
	// different backends or expression sets never cross-contaminate.
	// It must change whenever the backend would produce different
	// numbers for the same (machine, op, algs, p, m, cfg).
	Provenance() string
	// Estimate returns the time of one collective: op over algs on p
	// nodes of mach with m bytes per pair, under methodology cfg
	// (closed-form backends ignore cfg — their answer is exact). ctx
	// bounds backends that simulate: the Sim backend aborts its
	// event-loop drive when ctx cancels and returns ctx's error, so a
	// serving deadline never pins a worker behind an unbounded
	// simulation. Closed-form backends ignore ctx and never error;
	// fault-injection wrappers (FaultBackend) may return ErrInjected.
	Estimate(ctx context.Context, mach *machine.Machine, op machine.Op, algs mpi.Algorithms, p, m int, cfg measure.Config) (Estimate, error)
}

// Fingerprint hashes a machine's full calibration-constant set (network
// parameters, per-operation tunings, noise model — everything in
// machine.Params). It is part of every sweep-cache and expression key,
// so editing a preset silently invalidates all derived results.
func Fingerprint(m *machine.Machine) string {
	// encoding/json sorts map keys, so the Tunings map serializes
	// deterministically.
	blob, err := json.Marshal(m.Params())
	if err != nil {
		panic(fmt.Sprintf("estimate: fingerprint %s: %v", m.Name(), err))
	}
	return hashJSON(blob)
}

// hashJSON is the shared content-key digest: sha256 over a
// deterministic JSON blob, hex-encoded.
func hashJSON(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// BuildDataset measures op across machine sizes and message lengths
// under an explicit algorithm table and returns the dataset for curve
// fitting — the measurement loop behind the Calibrated backend's
// calibration routine (formerly measure.Sweep). SampleMemo.Dataset is
// the memoized equivalent.
func BuildDataset(mach *machine.Machine, op machine.Op, algs mpi.Algorithms, sizes, lengths []int, cfg measure.Config) *fit.Dataset {
	return (*SampleMemo)(nil).Dataset(mach, op, algs, sizes, lengths, cfg)
}

// Compare estimates one collective configuration on several machines
// (named by preset) under their vendor-default algorithm tables — the
// comparison loop the examples, the service, and the paper's §9 ranking
// discussion share. Barrier configurations are estimated with m = 0
// regardless of m. A machine or operation name that does not resolve
// returns a typed *UnknownNameError listing the valid names, instead of
// panicking somewhere inside the backend.
func Compare(b Backend, machines []string, op machine.Op, p, m int, cfg measure.Config) ([]Estimate, error) {
	if _, err := ResolveOp(string(op)); err != nil {
		return nil, err
	}
	if op == machine.OpBarrier {
		m = 0
	}
	out := make([]Estimate, 0, len(machines))
	for _, name := range machines {
		mach, err := ResolveMachine(name)
		if err != nil {
			return nil, err
		}
		est, err := b.Estimate(context.Background(), mach, op, mpi.DefaultAlgorithms(mach), p, m, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, est)
	}
	return out, nil
}

// Fastest returns the estimate with the lowest headline time (the first
// one on ties). It panics on an empty slice.
func Fastest(ests []Estimate) Estimate {
	best := ests[0]
	for _, e := range ests[1:] {
		if e.Sample.Micros < best.Sample.Micros {
			best = e
		}
	}
	return best
}
