// Package fit derives closed-form timing expressions from measured
// collective-communication data — the reproduction of the paper's §3
// fitting procedure, extended with a protocol-aware piecewise family.
//
// # The affine model (paper Table 3)
//
// The paper models every collective as
//
//	T(m, p) = T0(p) + s(p)·m
//
// where m is the message length in bytes, p the machine size, T0 the
// startup latency, and s the per-byte rate. Both terms take one of two
// p-shapes: a·p + b (linear collectives: gather, scatter, total
// exchange) or a·log2(p) + b (tree collectives: barrier, broadcast,
// reduce, scan). TwoStage reproduces the paper's procedure: T0(p) is
// the shortest-message timing per size, the remainder is fitted
// through the origin against m, and each term's p-shape is chosen by
// least-squares residual (FitForm), with the paper's published shape as
// the tie-break hint.
//
// # The piecewise family
//
// The affine model is weakest at mid lengths (m ≈ 256–4096 B), where
// real message-passing layers switch protocols — eager handoff for
// short messages, rendezvous-style for long ones — and fixed
// per-message overheads bend the curve. Piecewise fits K ≥ 1 affine
// segments over the measured (log-spaced) length columns instead:
// breakpoint candidates come from the consecutive-refit-delta probe
// (refit the affine model column by column; a column that moves the
// coefficients by more than PiecewiseTol marks a regime boundary), and
// K plus the breakpoint placement are selected by greedy forward
// selection on the fit's relative error cross-checked against the
// measured grid. K = 1 degrades to TwoStage exactly, so
// triples the affine model already fits never pay for segments.
//
// A piecewise Expression carries its pieces in Segments — adjacent
// segments share their boundary column, tiling the calibrated range —
// while Startup/PerByte keep the global affine view for legacy
// consumers (startup latency, asymptotic bandwidth). Eval and Predict
// dispatch to the segment covering m; affine expressions serialize
// byte-identically to the pre-piecewise format (Segments is omitted
// when empty).
//
// Fitted expressions persist as JSON through the sweep cache's
// expression store (see internal/sweep).
package fit
