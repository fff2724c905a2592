// Package obs is the unified observability layer: a label-aware metrics
// registry with Prometheus text exposition, and a decision-level tracer that
// turns the energy ledger's frame spans into a structured per-decision event
// log (NDJSON) and nested Chrome-trace spans.
//
// Design constraints, in order:
//
//  1. Byte-identical outputs. Observability must never change a report,
//     fault sweep, or NDJSON result row by one byte. Everything here is
//     therefore attached out-of-band: counters are process-local atomics
//     that no simulation code reads back, and the decision log is derived
//     from ledger spans the run already produced — the tracer observes the
//     simulation, it never participates in it. The report parity test and
//     CI's trace-smoke diff obs-on against obs-off outputs to enforce this.
//  2. Lock-cheap hot path. Incrementing a counter is one atomic add.
//     Labeled instruments resolve their child once (callers cache the
//     returned *Counter) so per-frame code never touches a map or mutex.
//  3. Bounded memory. Label cardinality is capped per family (overflowing
//     children collapse into an "overflow" child) and the decision recorder
//     caps its in-memory log, counting what it dropped.
//
// The enable gate is a context value: ContextWithObs turns decision
// recording off (or back on) for everything running under a context, and a
// context that does not say is on. greensrv and greennode thread it from
// their -no-obs flags through the fleet into the harness. Metrics counters
// stay live either way — they are free and side-effect-free — while
// decision recording honors the gate.
package obs

import "context"

// Enabled reports true: observability is on unless a run's context turns
// it off (EnabledIn). Kept for callers that predate the context gate.
func Enabled() bool { return true }

type ctxKey struct{}

// ContextWithObs returns a context that switches decision recording on or
// off for everything running under it.
func ContextWithObs(ctx context.Context, on bool) context.Context {
	return context.WithValue(ctx, ctxKey{}, on)
}

// EnabledIn reports whether observability is on for this context: on
// unless ContextWithObs turned it off.
func EnabledIn(ctx context.Context) bool {
	if ctx != nil {
		if v, ok := ctx.Value(ctxKey{}).(bool); ok {
			return v
		}
	}
	return true
}
