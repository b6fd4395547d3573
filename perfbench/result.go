package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// result is what one run reports: the metrics in the order they were
// added, human-readable notes printed before the JSON line, and the
// correctness accounting.
type result struct {
	attempted, failed int
	wrong             int
	firstWrong        []string
	metrics           []metric
	notes             []string
}

type metric struct {
	name, unit string
	value      float64
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mismatch records one answer that differs from its reference.
func (r *result) mismatch(format string, args ...any) {
	r.wrong++
	if len(r.firstWrong) < 5 {
		r.firstWrong = append(r.firstWrong, fmt.Sprintf(format, args...))
	}
}

// write prints the notes, a metric table, and the result object as the
// last line.
func (r *result) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, n := range r.notes {
		fmt.Fprintf(bw, "# %s\n", n)
	}
	for _, s := range r.firstWrong {
		fmt.Fprintf(bw, "# WRONG: %s\n", s)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(bw, "%-46s %16s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.wrong == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]value, len(r.metrics)),
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; where
// /proc is unavailable it falls back to the Go runtime's own view.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(runtimeSys()) / (1 << 20)
}
