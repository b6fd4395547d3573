package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV emits one row per scenario — the machine-readable sweep
// artifact — as RFC 4180 CSV with a header row.
func WriteCSV(w io.Writer, results []Result) error {
	// The writer buffers; a failed write sticks and Error reports it.
	cw := csv.NewWriter(w)
	cw.Write([]string{
		"machine", "op", "algorithm", "p", "m",
		"micros", "min_micros", "max_micros", "rank_min", "rank_mean",
		"seed", "cached", "backend",
	})
	for _, r := range results {
		cw.Write([]string{
			r.Scenario.Machine,
			string(r.Scenario.Op),
			r.Scenario.Algorithm,
			strconv.Itoa(r.Scenario.P),
			strconv.Itoa(r.Scenario.M),
			formatMicros(r.Sample.Micros),
			formatMicros(r.Sample.MinMicros),
			formatMicros(r.Sample.MaxMicros),
			formatMicros(r.Sample.RankMin),
			formatMicros(r.Sample.RankMean),
			strconv.FormatInt(r.Scenario.Config.Seed, 10),
			strconv.FormatBool(r.Cached),
			r.Backend,
		})
	}
	cw.Flush()
	return cw.Error()
}

// formatMicros keeps CSV output byte-stable across platforms: %g with
// full float64 round-trip precision.
func formatMicros(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteMarkdown emits the human-readable sweep report: a run header,
// per-(machine, op, algorithm) percentile summaries, and — when the
// sweep covered several variants of an operation — the per-machine
// best-algorithm decision tables.
func WriteMarkdown(w io.Writer, title string, results []Result) error {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	groups := Groups(results)
	cached := 0
	for _, r := range results {
		if r.Cached {
			cached++
		}
	}
	p("# %s", title)
	p("")
	p("%d scenarios (%d served from cache) across %d (machine, op, algorithm) groups.",
		len(results), cached, len(groups))
	p("Times are simulated µs; the headline value is the paper's metric — the")
	p("mean over executions of the max-reduced per-rank averages.")
	p("")

	p("## Group summaries")
	p("")
	p("| machine | op | algorithm | points | min | median | p95 | max |")
	p("|---|---|---|---|---|---|---|---|")
	for _, g := range groups {
		p("| %s | %s | %s | %d | %.1f | %.1f | %.1f | %.1f |",
			g.Machine, g.Op, g.Algorithm, g.N,
			g.MinMicros, g.MedianMicros, g.P95Micros, g.MaxMicros)
	}
	p("")

	decisions := BestAlgorithms(results)
	if len(decisions) > 0 {
		p("## Best algorithm per machine × op")
		p("")
		p("Share of grid points each variant wins (ties go to expansion order).")
		p("")
		p("| machine | op | algorithm | wins | points |")
		p("|---|---|---|---|---|")
		for _, wc := range WinCounts(decisions) {
			p("| %s | %s | %s | %d | %d |", wc.Machine, wc.Op, wc.Algorithm, wc.Wins, wc.Points)
		}
		p("")
		p("## Decision table (per grid point)")
		p("")
		p("| machine | op | p | m | best | µs | runner-up | µs | margin |")
		p("|---|---|---|---|---|---|---|---|---|")
		for _, d := range decisions {
			ru, rv := "-", "-"
			if d.RunnerUp != "" {
				ru = d.RunnerUp
				rv = fmt.Sprintf("%.1f", d.RunnerUpMicros)
			}
			p("| %s | %s | %d | %d | %s | %.1f | %s | %s | %.2f× |",
				d.Machine, d.Op, d.P, d.M, d.Best, d.BestMicros, ru, rv, d.Margin())
		}
		p("")
	}

	_, err := io.WriteString(w, b.String())
	return err
}
