// Package serve exposes the estimation engine over HTTP/JSON — the
// paper's closing promise ("predict collective performance without
// running the machine") as a queryable network service.
//
// # Endpoints
//
//	POST /v1/estimate   single scenario, a bare scenario array, or an
//	                    envelope {registry, scenarios:[...]}
//	GET  /v1/registry   the registered expression sets
//
// Every request selects a named expression set from an
// estimate.Registry (paper-table3, refit-default, refit-piecewise, or
// anything the embedding process registered). A
// batch is evaluated grouped by its distinct (machine, op, algorithm)
// triples. Name binding, the fallback decision, calibration, the
// fitted expression and its expected-error bound column are fixed once
// per triple and registry entry, memoized in the entry's state, so a
// warm request does per-scenario work only: each closed form is
// evaluated in place, in the handler goroutine, from its group's
// expression and bound column into two answer columns (µs, bound).
// Cold calibrated batches bulk-calibrate their new triples first (so a
// request never serializes behind one triple's first fit). Scenarios
// that call a backend — simulator fallbacks, through the answer cache
// (AnswerCache), and entries with no expression — run across a bounded
// worker pool, each on its own. The binary codec encodes closed forms
// straight from the columns; JSON and NDJSON assemble the answers at
// encode time. Responses are written from one buffer with their
// Content-Length.
//
// # Honesty guarantees
//
// Three response features keep answers honest:
//
//   - expected_error: closed-form answers attach the relative-error
//     bound a `sweep -validate` run measured for that (machine, op, m)
//     cell — rel_median, rel_max, the validated basis_m the bound comes
//     from, and how many scenarios it pooled. Piecewise expression sets
//     confine the lookup to the protocol segment that produced the
//     answer (segment_m_min/segment_m_max on the bound), so a bound is
//     never borrowed across a regime boundary.
//   - fallback/fallback_reason: scenarios outside the expression set's
//     calibrated (p, m) envelope, pairs the set never fitted, and
//     algorithm variants a fixed set cannot distinguish are answered by
//     the exact simulator — flagged, never silently extrapolated.
//   - provenance: the response envelope and the X-Estimate-Registry/
//     X-Estimate-Backend/X-Estimate-Provenance headers identify the
//     expression set, backend, and calibration-spec hash (including the
//     fit family) that produced the numbers.
//
// Unknown machine/operation/algorithm/registry names are 400s listing
// the valid names (estimate.UnknownNameError). Responses are
// byte-stable for a fixed registry and golden-tested (testdata/).
package serve
