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
// estimate.Registry (paper-table3, refit-default, refit-adaptive,
// refit-piecewise, or anything the embedding process registered). A
// batch is evaluated grouped by its distinct (machine, op, algorithm)
// triples: name binding, the fallback decision and calibration run
// once per triple, cold calibrated batches bulk-calibrate their
// triples first (so a request never serializes behind one triple's
// first fit), and the scenarios are answered in blocks across a
// bounded worker pool, each simulator fallback on its own.
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
