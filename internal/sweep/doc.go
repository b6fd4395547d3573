// Package sweep is the scenario-sweep engine of the reproduction: it
// expands a declarative experiment grid into concrete scenarios, fans
// them out across CPU cores, caches results under content keys, and
// aggregates the outcome into decision tables, validation reports, and
// loadable error tables.
//
// # Grids and execution
//
// A Spec declares the grid — machine preset × collective operation ×
// algorithm variant × message length × machine size × measurement
// methodology — and Expand materializes it in deterministic order;
// zero-value fields select the paper's own sweep (three machines, seven
// operations, factor-of-four lengths). Runner executes scenarios
// through any estimate.Backend over a bounded worker pool: every
// scenario is an independent seeded simulation (or closed-form
// evaluation), so output is byte-identical for any worker count. For
// calibrated backends the runner bulk-calibrates the grid's triples
// first (phase 2 of Run), so cold sweeps parallelize calibration
// instead of serializing behind first-touch fits.
//
// # The content-keyed cache
//
// Cache persists three artifact kinds in one directory, all atomically
// written and all keyed by content:
//
//   - *.seg.ndjson  measured samples, one newline-delimited JSON
//     segment per runner batch, one {key, id, sample} line per
//     scenario; a sample's key covers scenario + machine calibration
//     fingerprint + backend identity/provenance, and a segment is named
//     by a digest of its keys
//   - *.expr.json  fitted expressions (estimate.ExpressionStore), keyed
//     by the full calibration spec including the fit family — affine
//     and piecewise fits can never be confused
//   - *.errors.json  validation error tables, keyed by the candidate
//     backend's provenance (estimate.ErrorTableKey)
//
// A Run computes its scenarios' keys, streams the directory's segments
// once to serve the hits (the Cache keeps no index between Runs), and
// writes each batch of fresh results as one segment. Lines that are
// not well-formed entries, or that carry another key, serve nothing;
// per-key <key>.json sample files of older layouts are never read, so
// their scenarios are recomputed.
//
// Content keys mean invalidation is automatic: editing a machine
// preset, switching backends, recalibrating, or changing the fit family
// simply stops matching the stale entries. cacheVersion (samples) and
// the calibration version inside expression keys are bumped whenever
// semantics change in ways the key fields cannot capture.
//
// # Validation and error bounds
//
// Pair matches a sim (ground truth) pass against a candidate backend's
// pass over the same expansion; WriteValidation renders the paper-style
// relative-error report, including the mid-length window (m ∈ [256,
// 4096]) where protocol switches make the affine model weakest.
// BuildErrorTable condenses the pairs into a per-(machine, op, m)
// estimate.ErrorTable, and AttachBounds wires persisted tables to
// registry entries at service startup — the provenance key guarantees a
// recalibrated backend never serves stale bounds.
package sweep
