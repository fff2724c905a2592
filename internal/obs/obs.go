// Package obs is the unified observability layer: a label-aware metrics
// registry with Prometheus text exposition, and the per-decision event log
// (NDJSON) that projects the energy ledger's frame spans.
//
// Design constraints, in order:
//
//  1. Byte-identical outputs. Observability must never change a report,
//     fault sweep, or NDJSON result row by one byte. Everything here is
//     therefore attached out-of-band: counters are process-local atomics
//     that no simulation code reads back, and the decision log is derived
//     on demand from ledger spans the run already produced — it observes
//     the simulation, it never participates in it.
//  2. Lock-cheap hot path. Incrementing a counter is one atomic add.
//     Labeled instruments resolve their child once (callers cache the
//     returned *Counter) so per-frame code never touches a map or mutex.
//  3. Bounded memory. Label cardinality is capped per family (overflowing
//     children collapse into an "overflow" child), and the decision log is
//     never stored: it is at most as long as the span list it is read from.
package obs

// Enabled reports true. Kept only for perfbench/, which predates the
// removal of the observability switch.
func Enabled() bool { return true }
