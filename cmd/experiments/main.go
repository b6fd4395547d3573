// Command experiments runs the entire reproduction — every figure and
// table of the paper plus all quoted spot values — and writes
// EXPERIMENTS.md with paper-vs-measured numbers.
//
// The full grid T(m, p) is measured once per (machine, operation)
// through the sweep engine and every artifact is derived from it, so the
// document is self-consistent and a pure function of the methodology
// and the backend. Series the document only summarises come from
// cmd/sweep: the Fig. 1–3 series are the rows of
//
//	sweep -algs default -p 2,4,8,16,32,64,128 -csv f.csv
//
// Usage:
//
//	experiments                  # fast methodology (~10 s)
//	experiments -paper           # paper-faithful k=20 × 5 reps (slow)
//	experiments -cache .gridcache -out /tmp/e.md
//	experiments -backend analytic
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/estimate"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/paper"
	"repro/internal/stats"
	"repro/internal/sweep"
)

type grid struct {
	cfg     measure.Config
	backend estimate.Backend
	data    map[string]map[machine.Op]*fit.Dataset
	// offGrid holds points outside the §2 sweep (e.g. the §8 example's
	// m=512), estimated on first use. They stay out of data so the
	// slopes fitted from the grid never depend on lookup order.
	offGrid map[offGridKey]float64
}

type offGridKey struct {
	mach string
	op   machine.Op
	p, m int
}

// buildGrid estimates the full T(m, p) grid for every machine and
// operation through the sweep engine under the chosen backend: grid
// points run sharded across all cores, and cache (when non-nil) holds
// content-keyed results that survive across runs and self-invalidate
// when presets, the methodology, or the backend change. Progress lines
// go to log.
func buildGrid(cfg measure.Config, backend estimate.Backend, cache *sweep.Cache, log io.Writer) (*grid, error) {
	g := &grid{
		cfg: cfg, backend: backend,
		data:    map[string]map[machine.Op]*fit.Dataset{},
		offGrid: map[offGridKey]float64{},
	}
	for _, m := range machine.All() {
		row := map[machine.Op]*fit.Dataset{}
		for _, op := range machine.Ops {
			spec := sweep.Spec{
				Machines: []string{m.Name()},
				Ops:      []machine.Op{op},
				Config:   cfg,
			}
			scns, err := spec.Expand()
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "  measuring %s %s (%d grid points)\n",
				m.Name(), op, len(scns))
			results := (&sweep.Runner{Cache: cache, Backend: backend}).Run(scns)
			row[op] = sweep.ToDataset(results)
		}
		g.data[m.Name()] = row
	}
	return g, nil
}

func (g *grid) at(mach string, op machine.Op, p, m int) float64 {
	if v, ok := g.data[mach][op].At(p, m); ok {
		return v
	}
	k := offGridKey{mach, op, p, m}
	if v, ok := g.offGrid[k]; ok {
		return v
	}
	mc := machine.ByName(mach)
	est, err := g.backend.Estimate(context.Background(), mc, op, mpi.DefaultAlgorithms(mc), p, m, g.cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%s p=%d m=%d: %v", mach, op, p, m, err))
	}
	g.offGrid[k] = est.Sample.Micros
	return est.Sample.Micros
}

// t0 is the paper's startup estimate: the shortest-message timing.
func (g *grid) t0(mach string, op machine.Op, p int) float64 {
	if op == machine.OpBarrier {
		return g.at(mach, op, p, 0)
	}
	return g.at(mach, op, p, 4)
}

// bandwidth is the §8 aggregated bandwidth R∞(p) = f(p)/s(p), with the
// per-byte slope s(p) fitted over the grid's lengths above 4 bytes.
func (g *grid) bandwidth(mach string, op machine.Op, p int) float64 {
	s, _ := g.data[mach][op].PerByteSlope(p, 4)
	if s <= 0 {
		return 0
	}
	return paper.AggregatedMultiplier(op, p) / s
}

// methodology returns the measurement procedure and its label in the
// document header.
func methodology(paperCfg bool) (measure.Config, string) {
	if paperCfg {
		return measure.Paper(), "paper-faithful (warm-up 2, k=20, 5 executions)"
	}
	return measure.Fast(), "fast (warm-up 1, k=3, 2 executions)"
}

func main() {
	var (
		out      = flag.String("out", "EXPERIMENTS.md", "output path")
		paperCfg = flag.Bool("paper", false, "paper-faithful methodology (slow)")
		cacheDir = flag.String("cache", "", "sweep cache directory (reused across runs)")
		backendF = flag.String("backend", "sim", "estimation backend: sim (measure the grid), calibrated (fit once, serve closed-form), or analytic (paper expressions — a self-consistency run)")
	)
	flag.Parse()

	cfg, method := methodology(*paperCfg)
	cache, err := sweep.OpenCache(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "  disabling cache: %v\n", err)
		cache = nil
	}
	var backend estimate.Backend
	switch *backendF {
	case "sim", "":
		backend = estimate.Sim{}
	case "analytic":
		backend = estimate.PaperAnalytic()
	case "calibrated":
		cal := &estimate.Calibrated{Config: cfg}
		if cache != nil {
			// The same directory persists the fitted expressions, so a
			// warm process never refits what a previous run calibrated.
			cal.Store = cache
		}
		backend = cal
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown backend %q\n", *backendF)
		os.Exit(2)
	}
	start := time.Now()
	g, err := buildGrid(cfg, backend, cache, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	var b bytes.Buffer
	if err := render(&b, g, method); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, b.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes) in %s\n", *out, b.Len(), time.Since(start).Round(time.Second))
}

// render writes EXPERIMENTS.md for the grid g, measured under the
// methodology labelled method. The bytes depend only on the grid's
// methodology and backend.
func render(out io.Writer, g *grid, method string) error {
	var err error
	w := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(out, format+"\n", args...)
		}
	}

	w("# EXPERIMENTS — paper vs reproduction")
	w("")
	w("Generated by `go run ./cmd/experiments` (methodology: %s; %s backend).", method, g.backend.Name())
	w("Machines are simulated; docs/ARCHITECTURE.md (Substitutions) records the")
	w("substitutions. `ratio` is always measured/paper. Absolute agreement is")
	w("calibrated (Table 3 is the only surviving ground truth); the claims to")
	w("check are the *shapes*: who wins, where, by roughly how much.")
	w("")

	var ratios []float64

	// ---- Table 3 -----------------------------------------------------
	w("## Table 3 — fitted timing expressions")
	w("")
	w("| machine | op | paper | refit from simulator |")
	w("|---|---|---|---|")
	for _, m := range machine.All() {
		for _, op := range machine.Ops {
			pe, _ := paper.Expression(m.Name(), op)
			e := fit.TwoStage(g.data[m.Name()][op], paper.StartupShape(op), paper.PerByteShape(m.Name(), op))
			w("| %s | %s | `%s` | `%s` |", m.Name(), op, pe.String(), e.String())
		}
	}
	w("")
	w("Startup shapes (linear in p for gather/scatter/total exchange,")
	w("logarithmic for barrier/broadcast/reduce/scan) are selected by the")
	w("fit's own residual comparison, not imposed — matching §8.")
	w("")

	// ---- Fig. 1 -------------------------------------------------------
	w("## Figure 1 — startup latencies T0(p) (µs)")
	w("")
	for _, op := range machine.Ops {
		w("### %s", op)
		w("")
		w("| p | SP2 meas | SP2 paper | T3D meas | T3D paper | Paragon meas | Paragon paper |")
		w("|---|---|---|---|---|---|---|")
		for _, p := range []int{2, 8, 32, 64, 128} {
			row := fmt.Sprintf("| %d |", p)
			for _, m := range machine.All() {
				if p > m.MaxNodes() {
					row += " - | - |"
					continue
				}
				pe, _ := paper.Expression(m.Name(), op)
				meas := g.t0(m.Name(), op, p)
				want := pe.EvalStartup(p)
				row += fmt.Sprintf(" %.1f | %.1f |", meas, want)
				if want > 0 && meas > 0 {
					ratios = append(ratios, meas/want)
				}
			}
			w("%s", row)
		}
		w("")
	}

	// ---- Fig. 2 -------------------------------------------------------
	w("## Figure 2 — T(m, 32) vs message length (µs)")
	w("")
	for _, op := range paper.SixOps {
		w("### %s (p=32)", op)
		w("")
		w("| m (bytes) | SP2 meas | SP2 paper | T3D meas | T3D paper | Paragon meas | Paragon paper |")
		w("|---|---|---|---|---|---|---|")
		for _, m := range []int{4, 256, 1024, 16384, 65536} {
			row := fmt.Sprintf("| %d |", m)
			for _, mach := range machine.All() {
				pe, _ := paper.Expression(mach.Name(), op)
				meas := g.at(mach.Name(), op, 32, m)
				want := pe.Eval(m, 32)
				row += fmt.Sprintf(" %.0f | %.0f |", meas, want)
				if want > 0 && meas > 0 {
					ratios = append(ratios, meas/want)
				}
			}
			w("%s", row)
		}
		w("")
	}

	// ---- Fig. 3 -------------------------------------------------------
	w("## Figure 3 — T(m, p) vs machine size, short (16 B) and long (64 KB)")
	w("")
	for _, m := range []int{16, 65536} {
		w("### m = %d bytes (µs; winner per row in bold claim below)", m)
		w("")
		w("| p | SP2 | T3D | Paragon | fastest |")
		w("|---|---|---|---|---|")
		for _, p := range []int{2, 8, 32, 64, 128} {
			sp2 := math.NaN()
			if p <= 128 {
				sp2 = g.at("SP2", machine.OpAlltoall, p, m)
			}
			t3d := math.NaN()
			if p <= 64 {
				t3d = g.at("T3D", machine.OpAlltoall, p, m)
			}
			par := g.at("Paragon", machine.OpAlltoall, p, m)
			best := "SP2"
			bv := sp2
			if !math.IsNaN(t3d) && t3d < bv {
				best, bv = "T3D", t3d
			}
			if par < bv {
				best = "Paragon"
			}
			t3ds := "-"
			if !math.IsNaN(t3d) {
				t3ds = fmt.Sprintf("%.0f", t3d)
			}
			w("| %d | %.0f | %s | %.0f | %s |", p, sp2, t3ds, par, best)
		}
		w("")
	}
	w("(total exchange shown; the full per-op series are the rows of `go run ./cmd/sweep -algs default -p 2,4,8,16,32,64,128 -csv f.csv`)")
	w("")

	// ---- Fig. 4 -------------------------------------------------------
	w("## Figure 4 — startup/transmission breakdown (p=32, m=1 KB, µs)")
	w("")
	w("| machine | op | T0 meas | D meas | total meas | total paper | ratio |")
	w("|---|---|---|---|---|---|---|")
	for _, op := range paper.SixOps {
		for _, m := range machine.All() {
			pe, _ := paper.Expression(m.Name(), op)
			t0 := g.t0(m.Name(), op, 32)
			total := g.at(m.Name(), op, 32, 1024)
			want := pe.Eval(1024, 32)
			w("| %s | %s | %.1f | %.1f | %.1f | %.1f | %.2f |",
				m.Name(), op, t0, total-t0, total, want, total/want)
			ratios = append(ratios, total/want)
		}
	}
	w("")
	w("§7 highlights: the Paragon's total-exchange and gather startups at")
	w("p=32 (paper: 3857 µs and 2918 µs) measure %.0f µs and %.0f µs here.",
		g.t0("Paragon", machine.OpAlltoall, 32), g.t0("Paragon", machine.OpGather, 32))
	w("")

	// ---- Fig. 5 -------------------------------------------------------
	w("## Figure 5 — aggregated bandwidths R∞(p) (MB/s)")
	w("")
	w("| machine | op | p=16 meas | p=16 paper | p=32 meas | p=32 paper | p=64 meas | p=64 paper |")
	w("|---|---|---|---|---|---|---|---|")
	for _, op := range paper.SixOps {
		for _, m := range machine.All() {
			row := fmt.Sprintf("| %s | %s |", m.Name(), op)
			pe, _ := paper.Expression(m.Name(), op)
			for _, p := range paper.Fig5Sizes {
				meas := g.bandwidth(m.Name(), op, p)
				want := paper.AggregatedBandwidthMBs(pe, op, p)
				row += fmt.Sprintf(" %.0f | %.0f |", meas, want)
				if want > 0 && meas > 0 {
					ratios = append(ratios, meas/want)
				}
			}
			w("%s", row)
		}
	}
	w("")

	// ---- Spot values ---------------------------------------------------
	w("## Quoted spot values")
	w("")
	w("| where | check | paper | measured | ratio |")
	w("|---|---|---|---|---|")
	for _, sv := range paper.Reported {
		m := machine.ByName(sv.Machine)
		if sv.P > m.MaxNodes() {
			continue
		}
		var meas float64
		switch {
		case sv.Unit == "MB/s":
			meas = g.bandwidth(sv.Machine, sv.Op, sv.P)
		case sv.M <= 0:
			meas = g.t0(sv.Machine, sv.Op, sv.P)
		default:
			meas = g.at(sv.Machine, sv.Op, sv.P, sv.M)
		}
		w("| %s | %s %s p=%d | %.0f %s | %.0f | %.2f |",
			sv.Where, sv.Machine, sv.Op, sv.P, sv.Value, sv.Unit, meas, meas/sv.Value)
		ratios = append(ratios, meas/sv.Value)
	}
	w("")

	// ---- Shape claims ---------------------------------------------------
	w("## Headline shape claims")
	w("")
	check := func(name string, ok bool, detail string) {
		mark := "PASS"
		if !ok {
			mark = "FAIL"
		}
		w("- **%s** — %s (%s)", mark, name, detail)
	}
	t3dB := g.t0("T3D", machine.OpBarrier, 64)
	sp2B := g.t0("SP2", machine.OpBarrier, 64)
	parB := g.t0("Paragon", machine.OpBarrier, 64)
	check("T3D hardwired barrier ≈3 µs, ≥30× faster than SP2/Paragon",
		t3dB < 6 && sp2B/t3dB >= 30 && parB/t3dB >= 30,
		fmt.Sprintf("T3D %.1f µs vs SP2 %.0f, Paragon %.0f", t3dB, sp2B, parB))
	shortOK := true
	for _, op := range []machine.Op{machine.OpAlltoall, machine.OpScatter, machine.OpGather} {
		if g.at("SP2", op, 64, 16) >= g.at("Paragon", op, 64, 16) {
			shortOK = false
		}
	}
	check("SP2 beats Paragon for short messages (alltoall, scatter, gather)", shortOK, "m=16 B, p=64")
	longOK := true
	for _, op := range []machine.Op{machine.OpBroadcast, machine.OpAlltoall, machine.OpScatter, machine.OpGather} {
		if g.at("Paragon", op, 64, 65536) >= g.at("SP2", op, 64, 65536) {
			longOK = false
		}
	}
	check("Paragon beats SP2 for long messages except reduce", longOK &&
		g.at("SP2", machine.OpReduce, 64, 65536) < g.at("Paragon", machine.OpReduce, 64, 65536),
		"m=64 KB, p=64")
	bwT, bwP, bwS := g.bandwidth("T3D", machine.OpAlltoall, 64),
		g.bandwidth("Paragon", machine.OpAlltoall, 64), g.bandwidth("SP2", machine.OpAlltoall, 64)
	check("64-node total-exchange bandwidth ordering T3D > Paragon > SP2",
		bwT > bwP && bwP > bwS,
		fmt.Sprintf("measured %.0f / %.0f / %.0f MB/s; paper 1745 / 879 / 818", bwT, bwP, bwS))
	w("")

	// ---- Point-to-point / Hockney ---------------------------------------
	w("## Point-to-point characterization (Hockney model)")
	w("")
	w("The paper contrasts its aggregated bandwidth R∞(p) with Hockney's")
	w("point-to-point asymptotic bandwidth (§9). Ping-pong over the")
	w("simulated machines gives:")
	w("")
	w("| machine | t0 (µs) | r∞ (MB/s) | n½ (bytes) | raw link (MB/s) |")
	w("|---|---|---|---|---|")
	for _, m := range machine.All() {
		h := measure.HockneyFit(m, g.cfg)
		w("| %s | %.1f | %.1f | %.0f | %.0f |", m.Name(),
			h.T0Micros, h.RInfMBs, h.NHalf(), m.Params().Net.LinkBandwidthMBs)
	}
	w("")
	w("The software-limited r∞ sits far below the raw link rates — the gap")
	w("the paper attributes to messaging-layer overhead — and differs from")
	w("the per-collective effective rates of Table 3, which is exactly why")
	w("the paper argues per-collective aggregated bandwidth is the metric")
	w("that matters.")
	w("")

	// ---- Aggregate ------------------------------------------------------
	w("## Aggregate agreement")
	w("")
	var filtered []float64
	for _, r := range ratios {
		if r > 0 && !math.IsInf(r, 0) && !math.IsNaN(r) {
			filtered = append(filtered, r)
		}
	}
	s := stats.Summarize(filtered)
	w("Across %d paper-comparable points: geometric-mean ratio %.2f,", s.N, stats.GeoMean(filtered))
	w("median %.2f, min %.2f, max %.2f.", stats.Median(filtered), s.Min, s.Max)
	w("")
	w("## Known deviations")
	w("")
	w("- **Paragon scatter, long messages** — Table 3's per-byte rate")
	w("  (1/0.0031 ≈ 322 MB/s) exceeds the Paragon's physical 175 MB/s link;")
	w("  the simulator is capped at the link rate, so it runs ≈1.5× slower")
	w("  than the fit at 64 KB.")
	w("- **T3D scatter per-byte constant** — the paper's (0.0057p + 0.16)m has")
	w("  a dominant constant term no root-rate model reproduces; calibration")
	w("  splits the difference across p = 32…64 (±30%%).")
	w("- **Scan per-byte shape** — the paper fits scan's per-byte term as")
	w("  linear in p; our recursive-doubling implementation produces log-p")
	w("  growth with matched magnitude at p = 32…64.")
	w("- The abstract's 675 ms upper bound for 64 KB × 64-node operations is")
	w("  a measured outlier the paper's own fits understate (their maximum is")
	w("  ≈347 ms for the SP2 total exchange); we reproduce the fit, not the")
	w("  outlier.")
	return err
}
