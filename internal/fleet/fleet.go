// Package fleet is the concurrent experiment scheduler: it fans experiment
// jobs — one per app × governor × trace cell of the paper's evaluation —
// out across execution slots, each running an isolated simulated device
// (fresh sim/CPU/engine/governor per job, no shared mutable state).
//
// There is one scheduler, Pool: a partitioned work-stealing queue over a
// set of Nodes. New builds it over one LocalNode; NewWithNodes over any
// mix of local and remote nodes (internal/shard transports jobs to
// greennode workers behind the same Node interface). Each node gets one
// puller goroutine per execution slot; a LocalNode runs the job right on
// that puller, through the retry ladder, with no further queue.
//
// The scheduler provides the guarantees a sweep needs to be both fast and
// trustworthy:
//
//   - a bounded job queue (Start blocks while it is full, aborting on ctx);
//   - per-attempt timeout and cancellation via context.Context, checked at
//     simulation-chunk granularity inside the harness;
//   - panic recovery and a deterministic retry/backoff/quarantine ladder,
//     converting a crashed cell into a failed-job Result instead of
//     killing the sweep;
//   - a deterministic merge: RunSweep returns results in submission order
//     regardless of completion order, and every cell executes with
//     harness.ExecuteCell semantics on a private device, so aggregated
//     output is byte-identical to the sequential harness path at any
//     node × slot topology — including after a node dies and its jobs
//     re-home (ErrNodeDown).
//
// On top of the pool, Manager tracks named sweeps for the cmd/greensrv job
// server (sharded registry, per-job completion signals for NDJSON result
// streaming), and SuiteRunner plugs the pool into harness.Suite so the
// figure/table generators prefetch their working set concurrently.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// Phase selects which interaction trace a job replays.
type Phase string

// The two measurement phases of the paper's protocol.
const (
	Micro Phase = "micro" // single-primitive microbenchmark, repeated runs
	Full  Phase = "full"  // Table 3 full-interaction trace, one cold run
)

// Job is one experiment cell: an application under a governor, replaying
// one of its traces. Jobs are plain values — the executing slot
// materializes the simulated device fresh per job.
type Job struct {
	App     string       `json:"app"`
	Kind    harness.Kind `json:"kind"`
	Phase   Phase        `json:"phase"`
	Repeats int          `json:"repeats,omitempty"` // 0 → phase default (micro: harness.MicroRepeats, full: 1)
	// Faults optionally runs the cell on a faulted device (thermal caps,
	// DVFS transition failures, DAQ dropout). nil → pristine hardware.
	Faults *faults.Spec `json:"faults,omitempty"`
	// StageWorkers sets the render pipeline's stage-thread count for this
	// cell: 0 → whatever the sweep's context says (serial by default),
	// 1 → serial frame production, 2..browser.MaxStageWorkers → staged with
	// that many cores. Unlike a context setting it crosses the wire to
	// remote workers.
	StageWorkers int `json:"stage_workers,omitempty"`
	// Trace is the distributed-tracing context (sweep id, job index,
	// attempt, parent span id), stamped by the manager on traced sweeps.
	// Out-of-band by construction: no output path reads it, the WAL never
	// persists it (the manager strips it before persistMeta), and the shard
	// transport strips it for workers that did not negotiate tracing in the
	// handshake.
	Trace *trace.Context `json:"trace,omitempty"`
}

func (j Job) String() string { return fmt.Sprintf("%s/%s/%s", j.App, j.Kind, j.Phase) }

// Validate resolves the job against the application catalog and governor
// list without running it, so external input (the job server) fails fast
// with a useful error instead of a failed job.
func (j Job) Validate() error {
	if _, ok := apps.ByName(j.App); !ok {
		return fmt.Errorf("fleet: unknown app %q", j.App)
	}
	if _, err := harness.ParseKind(string(j.Kind)); err != nil {
		return err
	}
	switch j.Phase {
	case Micro, Full:
	default:
		return fmt.Errorf("fleet: unknown phase %q", j.Phase)
	}
	if j.Repeats < 0 {
		return fmt.Errorf("fleet: negative repeats %d", j.Repeats)
	}
	if !harness.ValidStageWorkers(j.StageWorkers) {
		return fmt.Errorf("fleet: stage workers %d out of range", j.StageWorkers)
	}
	if err := j.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// execute runs the cell on a fresh simulated device with harness.ExecuteCell,
// so a fleet result is interchangeable with a sequentially computed one.
func (j Job) execute(ctx context.Context) (*harness.Run, error) {
	app, ok := apps.ByName(j.App)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown app %q", j.App)
	}
	if j.StageWorkers > 0 {
		ctx = harness.WithStageWorkers(ctx, j.StageWorkers)
	}
	return harness.ExecuteCell(ctx, harness.Cell{
		App: app, Kind: j.Kind, Full: j.Phase == Full, Repeats: j.Repeats, Faults: j.Faults,
	})
}

// FaultSweepJobs is the fault sweep's grid: every catalog app under Perf,
// GreenWeb-I, and GreenWeb-U, full interaction, with spec active.
func FaultSweepJobs(spec *faults.Spec) []Job {
	var jobs []Job
	for _, name := range apps.Names() {
		for _, k := range []harness.Kind{harness.Perf, harness.GreenWebI, harness.GreenWebU} {
			jobs = append(jobs, Job{App: name, Kind: k, Phase: Full, Faults: spec})
		}
	}
	return jobs
}

// State is a job's lifecycle position.
type State string

// Job states, in order.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Result is one finished job.
type Result struct {
	Job    Job
	Run    *harness.Run // nil when Err != nil
	Err    error
	Worker int // execution slot that ran the job (-1 if never scheduled)
	// Latency is the wall-clock execution time, excluding queueing (all
	// attempts, including backoff sleeps).
	Latency time.Duration

	// Attempts is how many executions the job consumed (1 for a clean
	// first run; up to Options.MaxAttempts for a flaky or doomed one).
	Attempts int
	// History holds each failed attempt's error string, in attempt order —
	// the quarantine record, and the provenance of a retried success.
	History []string
	// Quarantined marks a job that failed on its own account (panic,
	// timeout, fault storm) through every allowed attempt. Jobs killed by
	// sweep-level cancellation are failed but not quarantined.
	Quarantined bool

	// Spans carries the executing process's trace spans for a traced job
	// (execute attempts, backoff sleeps), shipped alongside the result —
	// never inside any byte-compared output. SpanDrops counts spans the
	// per-job budget discarded.
	Spans     []trace.Span
	SpanDrops int
}

// State reports the terminal state the result represents.
func (r Result) State() State {
	if r.Err != nil {
		return StateFailed
	}
	return StateDone
}

// Sentinel errors for submission and delivery.
var (
	// ErrClosed rejects a submission to a closed Pool.
	ErrClosed = errors.New("fleet: pool closed")
	// ErrNodeDown marks a result whose job never reached a terminal state
	// because the node's transport failed (connection broke, heartbeat
	// suspicion, node declared dead). The pool treats it as re-homeable: the
	// job re-enters a live partition instead of being delivered as a
	// failure. Re-execution is safe because every cell is a deterministic
	// function of its job, and the store absorbs any replayed row
	// idempotently keyed on (sweep, index).
	ErrNodeDown = errors.New("fleet: node down")
	// ErrNoNodes is delivered when a job cannot be placed or re-homed
	// because every node of the pool has been evicted.
	ErrNoNodes = errors.New("fleet: no live nodes")
)

// Runner is the execution backend a Manager schedules sweeps onto — a Pool,
// or a wrapper around one that instruments its seams. Start enqueues one job
// (blocking while the backend is saturated, aborting on ctx) and guarantees
// deliver is called exactly once with the job's terminal Result; started, if
// non-nil, fires when the job leaves the queue for an execution slot.
type Runner interface {
	Start(ctx context.Context, job Job, started func(), deliver func(Result)) error
	// Workers is the total concurrent execution slots.
	Workers() int
	// Stats snapshots the backend's live counters (queue depth feeds
	// admission control).
	Stats() Stats
	// RegisterMetrics exposes the backend's counters on an obs registry.
	RegisterMetrics(reg *obs.Registry)
	// NodeInfos is the GET /v1/nodes federation: one row per node.
	NodeInfos() []NodeInfo
	// Close stops intake, drains queued jobs, and waits for the slots.
	Close()
}

// Options configures a Pool's local execution: the slot count and queue
// bound New uses, and the retry ladder every LocalNode runs.
type Options struct {
	// Workers is the number of concurrent simulated devices; 0 → GOMAXPROCS
	// for New, 1 for NewLocalNode.
	Workers int
	// QueueDepth bounds the jobs queued across all partitions; 0 →
	// 4×Workers. Start blocks while the queue is full.
	QueueDepth int
	// JobTimeout caps one job attempt's execution; 0 disables. An expired
	// attempt becomes a failed attempt (context.DeadlineExceeded), not a
	// dead slot — and is retried like any other failure.
	JobTimeout time.Duration
	// MaxAttempts is the total executions a failing job may consume before
	// quarantine (1 = no retry); 0 → 1. Failures covered: panics, per-
	// attempt timeouts, and harness errors such as injected fault storms.
	MaxAttempts int
	// RetryBaseDelay is the first retry's backoff (doubled per further
	// attempt, capped at RetryMaxDelay). 0 → 50ms. The slot sleeps the
	// backoff in place: a quarantine-bound cell should not hammer the CPU.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the exponential backoff. 0 → 2s.
	RetryMaxDelay time.Duration
	// RetrySeed drives the deterministic backoff jitter (±25%, an FNV hash
	// of seed × job × attempt — no global randomness, so a replayed sweep
	// backs off identically).
	RetrySeed int64
	// Execute overrides the cell executor; tests use it to inject slow,
	// panicking, or instant jobs. nil → the real harness execution.
	Execute func(ctx context.Context, j Job) (*harness.Run, error)
	// SpanBudget caps one traced job's recorded spans; 0 →
	// trace.DefaultJobBudget. Overflow increments the result's SpanDrops.
	SpanBudget int
}

// RunSweep fans the jobs out over any Runner and blocks until every one has
// a result, merged back in submission order regardless of completion order.
// Cancellation mid-sweep converts the not-yet-finished cells into failed
// results carrying ctx's error; the slice is always fully populated.
func RunSweep(ctx context.Context, r Runner, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i, job := range jobs {
		i, job := i, job
		err := r.Start(ctx, job, nil, func(res Result) {
			results[i] = res
			wg.Done()
		})
		if err != nil {
			results[i] = Result{Job: job, Worker: -1, Err: err}
			wg.Done()
		}
	}
	wg.Wait()
	return results
}
