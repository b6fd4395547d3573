package sweep

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/estimate"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
)

// cacheVersion is baked into every content key; bump it when the
// measurement semantics change in a way the key fields do not capture.
// v2: keys carry the estimation backend's identity and provenance.
const cacheVersion = 2

// Fingerprint hashes a machine's full calibration-constant set; see
// estimate.Fingerprint, which owns the digest so the backends and the
// sweep cache key the same identity.
func Fingerprint(m *machine.Machine) string {
	return estimate.Fingerprint(m)
}

// BackendID condenses a backend's identity and data provenance into the
// string the cache keys carry. Distinct backends — or one backend over
// distinct expression sets or calibration specs — never share an ID, so
// their cached results never cross-contaminate.
func BackendID(b estimate.Backend) string {
	return b.Name() + "\x00" + b.Provenance()
}

// Key returns the scenario's content key given its machine's
// calibration fingerprint and the estimation backend's ID: identical
// inputs — scenario coordinates, methodology (including seed),
// calibration constants, backend identity and provenance — always
// produce the same key, and any drift produces a different one.
func (s Scenario) Key(fingerprint, backendID string) string {
	blob, err := json.Marshal(struct {
		V           int      `json:"v"`
		Scenario    Scenario `json:"scenario"`
		Calibration string   `json:"calibration"`
		Backend     string   `json:"backend"`
	}{cacheVersion, s, fingerprint, backendID})
	if err != nil {
		panic(fmt.Sprintf("sweep: key %s: %v", s.ID(), err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// entry is one line of a sample segment: the persisted result of one
// scenario. The scenario ID is stored for humans inspecting the cache
// directory; the key alone decides a hit.
type entry struct {
	Key    string         `json:"key"`
	ID     string         `json:"id"`
	Sample measure.Sample `json:"sample"`
}

// exprEntry is the envelope of one persisted fitted expression (the
// Calibrated backend's calibration artifact).
type exprEntry struct {
	Key        string         `json:"key"`
	ID         string         `json:"id"`
	Expression fit.Expression `json:"expression"`
}

// errEntry is the envelope of one persisted validation error table (the
// `sweep -validate` artifact the serving layer loads bounds from).
type errEntry struct {
	Key   string              `json:"key"`
	ID    string              `json:"id"`
	Table estimate.ErrorTable `json:"table"`
}

// Cache is a content-keyed result store under a directory. Samples
// live in segments, one newline-delimited JSON file per runner span
// (segSuffix); a Run streams the segments once to serve its hits and
// keeps no index between Runs. The Cache also persists the Calibrated
// backend's fitted expressions (estimate.ExpressionStore) and
// validation error tables, one JSON file each, so one directory carries
// a sweep's samples and the calibration they may derive from. The zero
// of *Cache (nil) is a valid no-op cache.
type Cache struct {
	dir string
}

// segSuffix names sample segments. Files the cache does not write
// under this suffix, including per-key <key>.json samples of older
// layouts, are never read as samples.
const segSuffix = ".seg.ndjson"

// Cache persists calibrations for the Calibrated backend.
var _ estimate.ExpressionStore = (*Cache)(nil)

// OpenCache returns a cache rooted at dir, creating it if needed. An
// empty dir returns nil — caching disabled.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

func (c *Cache) exprPath(key string) string {
	return filepath.Join(c.dir, key+".expr.json")
}

func (c *Cache) errPath(key string) string {
	return filepath.Join(c.dir, key+".errors.json")
}

// lookup streams every sample segment in the directory once and
// returns the sample of each of keys it finds. A line that is not one
// well-formed entry, or that carries another key, serves nothing; the
// first segment in name order that carries a key wins.
func (c *Cache) lookup(keys []string) map[string]measure.Sample {
	if c == nil {
		return nil
	}
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	found := make(map[string]measure.Sample)
	files, err := os.ReadDir(c.dir)
	if err != nil {
		return found
	}
	for _, f := range files {
		if len(found) == len(want) {
			break
		}
		if !strings.HasSuffix(f.Name(), segSuffix) {
			continue
		}
		seg, err := os.Open(filepath.Join(c.dir, f.Name()))
		if err != nil {
			continue
		}
		scanSegment(seg, want, found)
		seg.Close()
	}
	return found
}

// scanSegment adds to found the sample of every wanted key that one
// segment carries on a well-formed line.
func scanSegment(r io.Reader, want map[string]bool, found map[string]measure.Sample) {
	sc := bufio.NewScanner(r) // a line over 64 KiB ends the segment's read
	for sc.Scan() {
		var e entry
		if json.Unmarshal(sc.Bytes(), &e) != nil || !want[e.Key] {
			continue
		}
		if _, dup := found[e.Key]; !dup {
			found[e.Key] = e.Sample
		}
	}
}

// putSegment stores one runner span's samples as a segment, atomically
// (write-temp + rename) so concurrent sweeps sharing a directory never
// observe a partial segment. The segment is named by a digest of its
// keys, so rerunning a span replaces its segment instead of adding one.
func (c *Cache) putSegment(entries []entry) error {
	if c == nil || len(entries) == 0 {
		return nil
	}
	h := sha256.New()
	for _, e := range entries {
		io.WriteString(h, e.Key+"\n")
	}
	name := hex.EncodeToString(h.Sum(nil)) + segSuffix
	return c.writeAtomic(filepath.Join(c.dir, name), func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		for _, e := range entries {
			// An unencodable sample (NaN, ±Inf) is left out, to be
			// recomputed, without costing the rest of the span.
			_ = enc.Encode(e)
		}
		return bw.Flush()
	})
}

// GetExpression returns the persisted fitted expression for key, if
// present and intact (estimate.ExpressionStore).
func (c *Cache) GetExpression(key string) (fit.Expression, bool) {
	if c == nil {
		return fit.Expression{}, false
	}
	var e exprEntry
	if !readJSON(c.exprPath(key), &e) || e.Key != key {
		return fit.Expression{}, false
	}
	return e.Expression, true
}

// PutExpression stores a fitted expression under key, atomically
// (estimate.ExpressionStore).
func (c *Cache) PutExpression(key, id string, e fit.Expression) error {
	if c == nil {
		return nil
	}
	return c.writeAtomic(c.exprPath(key), func(w io.Writer) error {
		return writeJSON(w, exprEntry{Key: key, ID: id, Expression: e})
	})
}

// GetErrorTable returns the persisted validation error table for key
// (estimate.ErrorTableKey of the candidate backend), if present and
// intact.
func (c *Cache) GetErrorTable(key string) (estimate.ErrorTable, bool) {
	if c == nil {
		return estimate.ErrorTable{}, false
	}
	var e errEntry
	if !readJSON(c.errPath(key), &e) || e.Key != key {
		return estimate.ErrorTable{}, false
	}
	return e.Table, true
}

// PutErrorTable stores a validation error table under key, atomically,
// as a stable *.errors.json artifact next to the expressions it
// describes.
func (c *Cache) PutErrorTable(key, id string, t estimate.ErrorTable) error {
	if c == nil {
		return nil
	}
	return c.writeAtomic(c.errPath(key), func(w io.Writer) error {
		return writeJSON(w, errEntry{Key: key, ID: id, Table: t})
	})
}

// writeAtomic persists what write produces at path via write-temp +
// rename.
func (c *Cache) writeAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	return nil
}

// writeJSON / readJSON are the io-level persistence pair, following the
// internal/fit persist idiom (WriteCSV/ReadCSV) with JSON framing.
func writeJSON(w io.Writer, envelope any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(envelope)
}

func readJSON(path string, into any) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(into) == nil
}
