package fleet

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"time"

	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// Node is one execution backend of a Pool. Run executes a single job to its
// terminal Result (retries, panic recovery, and timeouts happen inside), and
// is called by at most Workers() pool pullers concurrently. A Run result
// wrapping ErrNodeDown means the node's transport failed under the job; the
// pool re-homes it instead of delivering it.
type Node interface {
	ID() int
	Workers() int
	Run(ctx context.Context, job Job) Result
	Close()
}

// NodeHealth is a remote node's transport health, exported per node by
// Pool.RegisterMetrics and Pool.NodeInfos.
type NodeHealth struct {
	Connected       bool          `json:"connected"`
	Dead            bool          `json:"dead"`
	LastRTT         time.Duration `json:"last_rtt"` // most recent heartbeat round trip
	Reconnects      int64         `json:"reconnects"`
	HeartbeatMisses int64         `json:"heartbeat_misses"`
	// ClockOffsetUS is the handshake-estimated offset of the worker's clock
	// from ours (positive = worker ahead), used to align its trace spans.
	ClockOffsetUS int64 `json:"clock_offset_us"`
}

// healthReporter is the optional Node facet the pool polls for health
// metrics (shard.RemoteNode).
type healthReporter interface {
	Health() NodeHealth
}

// deathNotifier is the optional Node facet the pool subscribes to for
// eviction: fn runs (once, on its own goroutine) when the node gives up.
type deathNotifier interface {
	OnDead(fn func())
}

// NodeInfo is one execution node's row in the GET /v1/nodes federation:
// identity, liveness, transport health (remote nodes), and work/trace
// accounting.
type NodeInfo struct {
	ID      int    `json:"id"`
	Kind    string `json:"kind"` // "local" | "remote"
	Name    string `json:"name,omitempty"`
	Workers int    `json:"workers"`
	Up      bool   `json:"up"`
	Dead    bool   `json:"dead,omitempty"`

	// Transport health — remote nodes only.
	HeartbeatRTTMS  float64 `json:"heartbeat_rtt_ms,omitempty"`
	Reconnects      int64   `json:"reconnects,omitempty"`
	HeartbeatMisses int64   `json:"heartbeat_misses,omitempty"`
	// ClockOffsetUS is the handshake-estimated offset of the node's clock
	// from the server's (positive = node clock ahead), used to align the
	// node's trace spans.
	ClockOffsetUS int64 `json:"clock_offset_us,omitempty"`

	// Work accounting.
	QueueDepth int64 `json:"queue_depth"`
	Jobs       int64 `json:"jobs"`
	Steals     int64 `json:"steals,omitempty"`
	Rehomed    int64 `json:"rehomed,omitempty"`
	// SpanDrops counts trace spans this node's jobs discarded to budget
	// pressure (worker-side drops surface here even though the spans never
	// reached the server).
	SpanDrops int64 `json:"span_drops,omitempty"`
}

// LocalNode is the in-process Node: Workers execution slots that run each
// job on the calling pool puller, through the retry ladder. It holds no
// queue and no goroutines of its own.
type LocalNode struct {
	id   int
	opts Options
}

// NewLocalNode builds an in-process node. opts.Workers defaults to 1;
// opts.QueueDepth is the pool's business and is ignored here.
func NewLocalNode(id int, opts Options) *LocalNode {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Execute == nil {
		opts.Execute = func(ctx context.Context, j Job) (*harness.Run, error) { return j.execute(ctx) }
	}
	return &LocalNode{id: id, opts: opts}
}

// ID reports the node index.
func (n *LocalNode) ID() int { return n.id }

// Workers reports the node's concurrent execution slots.
func (n *LocalNode) Workers() int { return n.opts.Workers }

// Close is a no-op: a local node owns nothing that outlives a Run.
func (n *LocalNode) Close() {}

// Run executes one job through the retry ladder: each attempt runs with
// panic recovery and the per-attempt timeout; failed attempts back off
// (capped exponential, deterministically jittered) and retry until success,
// MaxAttempts exhaustion (→ quarantine), or sweep-level cancellation. The
// pool stamps the result's Worker with the slot that ran it.
func (n *LocalNode) Run(ctx context.Context, job Job) Result {
	start := time.Now()
	res := Result{Job: job}
	// A traced job records its execute attempts and backoff sleeps into a
	// bounded per-job recorder; the spans ride back beside the result. Nil
	// recorder (untraced) records nothing.
	var rec *trace.JobRecorder
	if job.Trace != nil {
		rec = trace.NewJobRecorder(*job.Trace, n.opts.SpanBudget)
	}
	max := n.opts.MaxAttempts
	if max < 1 {
		max = 1
	}
	for attempt := 1; attempt <= max; attempt++ {
		res.Attempts = attempt
		t0 := time.Now()
		run, err := n.attempt(ctx, job)
		attrs := map[string]string{"try": strconv.Itoa(attempt), "node": strconv.Itoa(n.id)}
		if err != nil {
			attrs["err"] = err.Error()
		}
		rec.Record("execute", "execute", t0, time.Since(t0), attrs)
		if err == nil {
			res.Run, res.Err = run, nil
			break
		}
		res.Err = err
		res.History = append(res.History, err.Error())
		if ctx.Err() != nil || attempt == max {
			res.Quarantined = ctx.Err() == nil
			break
		}
		t0 = time.Now()
		select {
		case <-time.After(n.backoff(job, attempt)):
		case <-ctx.Done():
			// The sweep died while we waited; the attempt's own error
			// stands as the job's cause of death.
		}
		rec.Record("backoff", "backoff", t0, time.Since(t0),
			map[string]string{"try": strconv.Itoa(attempt)})
	}
	res.Spans, res.SpanDrops = rec.Drain()
	res.Latency = time.Since(start)
	return res
}

// attempt is one isolated execution: its own recovery scope (so a panicking
// cell is retryable) and its own timeout budget.
func (n *LocalNode) attempt(ctx context.Context, job Job) (run *harness.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			run, err = nil, fmt.Errorf("fleet: %s panicked: %v", job, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, n.opts.JobTimeout)
		defer cancel()
	}
	return n.opts.Execute(ctx, job)
}

// backoff computes the sleep before retrying a job after its attempt-th
// failure: base·2^(attempt-1) capped at the max, scaled by a deterministic
// jitter in [0.75, 1.25) hashed from (seed, job, attempt) so concurrent
// retries de-synchronize identically on every run.
func (n *LocalNode) backoff(job Job, attempt int) time.Duration {
	base := n.opts.RetryBaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := n.opts.RetryMaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n.opts.RetrySeed))
	h.Write(buf[:])
	io.WriteString(h, job.String())
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	h.Write(buf[:])
	frac := float64(h.Sum64()>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}
