package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// gridBatch is the batch size of grid-wire: the size of the default
// sweep grid, the batched request the wire codec was built for.
const gridBatch = 788

// triple is one (machine, op, algorithm) a request may name.
type triple struct{ mach, op, alg string }

// envelopeTriples is every machine × op × variant the calibrated
// entries answer in closed form.
func envelopeTriples() []triple {
	var out []triple
	for _, mach := range machine.All() {
		for _, op := range machine.Ops {
			for _, alg := range estimate.ValidAlgorithms(mach, op) {
				out = append(out, triple{mach.Name(), string(op), alg})
			}
		}
	}
	return out
}

// logUniform draws an integer log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, lo, hi int) int {
	v := int(math.Round(math.Exp(math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))))
	return min(max(v, lo), hi)
}

// scenarioAt builds one scenario of t at (p, m), barriers at m = 0.
func scenarioAt(t triple, p, m int) serve.Scenario {
	if t.op == string(machine.OpBarrier) {
		m = 0
	}
	return serve.Scenario{Machine: t.mach, Op: t.op, Algorithm: t.alg, P: p, M: m}
}

// gridPool draws n scenarios inside the calibrated envelope: a uniform
// triple, p ∈ [8, 32], m log-uniform in [4, 65536].
func gridPool(rng *rand.Rand, n int) []serve.Scenario {
	triples := envelopeTriples()
	out := make([]serve.Scenario, n)
	for i := range out {
		out[i] = scenarioAt(triples[rng.Intn(len(triples))], 8+rng.Intn(25), logUniform(rng, 4, 65536))
	}
	return out
}

// wireFrame encodes scenarios as a binary request frame, each distinct
// name once in the string table.
func wireFrame(registry string, scns []serve.Scenario) []byte {
	req := wire.Request{Registry: registry}
	index := map[string]uint32{}
	intern := func(s string) uint32 {
		if i, ok := index[s]; ok {
			return i
		}
		i := uint32(len(req.Table))
		req.Table = append(req.Table, s)
		index[s] = i
		return i
	}
	for _, sc := range scns {
		req.Records = append(req.Records, wire.Record{
			Mach: intern(sc.Machine), Op: intern(sc.Op), Alg: intern(sc.Algorithm), P: sc.P, M: sc.M,
		})
	}
	return req.Append(nil)
}

// gridInputs is grid-wire's generated traffic: batches drawn from a
// fixed pool, and their encoded frames.
type gridInputs struct {
	batches [][]serve.Scenario
	frames  [][]byte
}

func newGridInputs(rng *rand.Rand) gridInputs {
	pool := gridPool(rng, 4096)
	var in gridInputs
	for i := 0; i < 24; i++ {
		batch := make([]serve.Scenario, gridBatch)
		for j := range batch {
			batch[j] = pool[rng.Intn(len(pool))]
		}
		in.batches = append(in.batches, batch)
		in.frames = append(in.frames, wireFrame("", batch))
	}
	return in
}

// checkWire decodes one binary response and compares every answer with
// the reference, recording every mismatch in res.
func checkWire(res *result, ref *reference, batch []serve.Scenario, body []byte) error {
	var resp wire.Response
	if err := resp.Decode(body); err != nil {
		res.mismatch("undecodable response: %v", err)
		return nil
	}
	if resp.Registry != defaultRegistry || len(resp.Answers) != len(batch) {
		res.mismatch("response for %d scenarios from %q carries %d answers", len(batch), resp.Registry, len(resp.Answers))
		return nil
	}
	for i, sc := range batch {
		want, err := ref.answer("", sc)
		if err != nil {
			return err
		}
		if err := sameWireAnswer(resp.Answers[i], want); err != nil {
			res.mismatch("grid-wire answer %d: %v", i, err)
		}
	}
	return nil
}

// gridWire is the closed-loop batched-throughput workload: one client
// on one kept-alive loopback connection posts 788-scenario binary
// frames to one worker and waits for each answer.
func gridWire(b *bench) (*result, error) {
	res := &result{}
	d, w, err := b.setUps(res)
	if err != nil {
		return nil, err
	}
	defer w.close()
	addValidation(res, d)
	ref, err := newReference(d)
	if err != nil {
		return nil, err
	}
	in := newGridInputs(b.rng)
	client := newClient()
	url := w.url + "/v1/estimate"
	var buf bytes.Buffer

	// Warm pass: every batch once, each answer checked against the
	// reference; later responses to the same batch must repeat these
	// bytes exactly.
	expected := make([][]byte, len(in.frames))
	for i, frame := range in.frames {
		status, err := post(client, url, wire.ContentType, frame, nil, &buf)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("warm-up batch %d: status %d: %s", i, status, buf.Bytes())
		}
		if err := checkWire(res, ref, in.batches[i], buf.Bytes()); err != nil {
			return nil, err
		}
		expected[i] = bytes.Clone(buf.Bytes())
	}

	var lats []time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < b.dur; i++ {
		k := i % len(in.frames)
		t0 := time.Now()
		status, err := post(client, url, wire.ContentType, in.frames[k], nil, &buf)
		lat := time.Since(t0)
		res.attempted++
		switch {
		case err != nil || status != http.StatusOK:
			res.failed++
		case !bytes.Equal(buf.Bytes(), expected[k]):
			res.failed++
			if err := checkWire(res, ref, in.batches[k], buf.Bytes()); err != nil {
				return nil, err
			}
		}
		lats = append(lats, lat)
	}
	elapsed := time.Since(start)
	ms := millis(lats)
	res.note("grid-wire: request-time deciles (ms): %.3f", []float64{quantile(ms, 0.1), quantile(ms, 0.2), quantile(ms, 0.3),
		quantile(ms, 0.4), quantile(ms, 0.5), quantile(ms, 0.6), quantile(ms, 0.7), quantile(ms, 0.8), quantile(ms, 0.9)})
	res.note("grid-wire: closed loop, 1 client, %d requests of %d scenarios in %.2f s; p99 has %d samples beyond it",
		len(lats), gridBatch, elapsed.Seconds(), len(lats)/100)
	res.note("grid-wire: error_ratio %d/%d", res.failed, res.attempted)
	res.add("scenarios_per_s", "1/s", float64(len(lats)*gridBatch)/elapsed.Seconds())
	res.add("lat_p50_ms", "ms", quantile(ms, 0.50))
	res.add("lat_p99_ms", "ms", quantile(ms, 0.99))
	res.add("rss_peak_mb", "MiB", peakRSSMB())
	return res, nil
}

// addValidation reports rel_err_max: the worst candidate-vs-sim relative
// error of the default entry's validation, the one whose bounds the
// served answers carry.
func addValidation(res *result, d *deployment) {
	worst := 0.0
	for _, p := range d.affine.pairs {
		worst = max(worst, p.RelError())
	}
	res.note("validation: %d scenarios, %d error cells (affine), %d (piecewise)",
		len(d.affine.pairs), len(d.affine.table.Cells), len(d.piecewise.table.Cells))
	res.add("rel_err_max", "ratio", worst)
}
