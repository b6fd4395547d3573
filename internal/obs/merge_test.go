package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

func parseExport(t *testing.T, r *Registry) *ParsedMetrics {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ParsePrometheus(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// totalsOf extracts the fleet-wide series (those without an instance
// label) of a merged snapshot.
func totalsOf(p *ParsedMetrics) map[string]any {
	out := map[string]any{}
	for _, f := range p.Families {
		for _, s := range f.Series {
			instanced := false
			for _, l := range s.Labels {
				if l.Key == InstanceLabel {
					instanced = true
					break
				}
			}
			if instanced {
				continue
			}
			switch f.Kind {
			case "counter":
				out[f.Name+s.Key()] = s.Counter
			case "gauge":
				out[f.Name+s.Key()] = s.Gauge
			default:
				out[f.Name+s.Key()] = *s.Hist
			}
		}
	}
	return out
}

// TestMergeKCopiesMultiplies is the exactness property: merging K
// copies of one snapshot multiplies every counter, every gauge, every
// histogram count/sum, and every individual bucket by exactly K.
func TestMergeKCopiesMultiplies(t *testing.T) {
	reg := exportRegistry()
	base := parseExport(t, reg)
	for _, k := range []int{1, 2, 5} {
		instances := map[string]*ParsedMetrics{}
		for i := 0; i < k; i++ {
			instances[fmt.Sprintf("w%d", i)] = parseExport(t, reg)
		}
		merged, err := Merge(instances)
		if err != nil {
			t.Fatal(err)
		}
		got := totalsOf(merged)
		want := map[string]any{}
		for name, v := range base.Snapshot() {
			switch v := v.(type) {
			case uint64:
				want[name] = v * uint64(k)
			case int64:
				want[name] = v * int64(k)
			case HistogramSnapshot:
				scaled := HistogramSnapshot{Count: v.Count * uint64(k), Sum: v.Sum * uint64(k)}
				for _, b := range v.Buckets {
					scaled.Buckets = append(scaled.Buckets, BucketSnapshot{Le: b.Le, N: b.N * uint64(k)})
				}
				want[name] = scaled
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("K=%d totals:\n got %#v\nwant %#v", k, got, want)
		}
	}
}

// TestMergePreservesPerInstanceSeries: each source's values reappear
// unchanged under instance="name".
func TestMergePreservesPerInstanceSeries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("req_total", "requests", Label{"outcome", "ok"}).Add(3)
	b.Counter("req_total", "requests", Label{"outcome", "ok"}).Add(5)
	b.Counter("req_total", "requests", Label{"outcome", "err"}).Add(1)
	merged, err := Merge(map[string]*ParsedMetrics{
		"w1": parseExport(t, a),
		"w2": parseExport(t, b),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := merged.Snapshot()
	for series, want := range map[string]uint64{
		`req_total{outcome="ok"}`:                8,
		`req_total{outcome="ok",instance="w1"}`:  3,
		`req_total{outcome="ok",instance="w2"}`:  5,
		`req_total{outcome="err"}`:               1,
		`req_total{outcome="err",instance="w2"}`: 1,
	} {
		if got, ok := snap[series]; !ok || got != any(want) {
			t.Errorf("%s = %v (present %v), want %d", series, got, ok, want)
		}
	}
	if _, ok := snap[`req_total{outcome="err",instance="w1"}`]; ok {
		t.Error("w1 gained an err series it never reported")
	}
}

// TestMergeHistogramsExactly: merging two workers' histograms equals
// the histogram of one worker having made every observation.
func TestMergeHistogramsExactly(t *testing.T) {
	a, b, union := NewRegistry(), NewRegistry(), NewRegistry()
	obsA := []uint64{0, 1, 5, 100, 100000}
	obsB := []uint64{3, 5, 70000, 1 << 40}
	ha := a.Histogram("lat_ns", "latency")
	hu := union.Histogram("lat_ns", "latency")
	for _, v := range obsA {
		ha.Observe(v)
		hu.Observe(v)
	}
	hb := b.Histogram("lat_ns", "latency")
	for _, v := range obsB {
		hb.Observe(v)
		hu.Observe(v)
	}
	merged, err := Merge(map[string]*ParsedMetrics{
		"a": parseExport(t, a),
		"b": parseExport(t, b),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := totalsOf(merged)["lat_ns"]
	want := union.Snapshot()["lat_ns"]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged histogram %#v, union histogram %#v", got, want)
	}
}

func TestMergeKindMismatchFails(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x", "as counter").Inc()
	b.Gauge("x", "as gauge").Set(1)
	if _, err := Merge(map[string]*ParsedMetrics{
		"a": parseExport(t, a),
		"b": parseExport(t, b),
	}); err == nil {
		t.Fatal("kind mismatch merged without error")
	}
}

// TestMergedSnapshotReExports: the merged view itself survives the
// text format — what cmd/fleetfront's merged GET /metrics relies on.
func TestMergedSnapshotReExports(t *testing.T) {
	reg := exportRegistry()
	merged, err := Merge(map[string]*ParsedMetrics{
		"w1": parseExport(t, reg),
		"w2": parseExport(t, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := merged.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := ParsePrometheus(buf.Bytes())
	if err != nil {
		t.Fatalf("re-parsing merged export: %v\n%s", err, buf.String())
	}
	if got, want := re.Snapshot(), merged.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("merged export does not round-trip")
	}
}
