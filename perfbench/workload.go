package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/harness"
)

// stack is one built workload: the system under test wired up, its golden
// references loaded, and one checked warm-up pass behind it.
type stack interface {
	// op runs one operation — a report, or a sweep — checks its output, and
	// returns the jobs it completed. It calls done as jobs complete (with the
	// count completed since its last call), so throughput can be cut into
	// windows finer than an operation; done may be nil.
	op(ctx context.Context, done func(jobs int)) (int, error)
	// clients is the closed loop's concurrency.
	clients() int
	// slots is the execution slots jobs run on.
	slots() int
	// cells lists the distinct cells the workload executes.
	cells() []harness.Cell
	// storeStats returns the store layer's metrics of a traced stack after
	// its measured phase.
	storeStats() (map[string]float64, error)
	// close tears the stack down and runs the post-run checks.
	close() (readPath, error)
}

// readPath is the store read side measured at close: reopening the WAL and
// replaying every persisted sweep. Zero without a store.
type readPath struct{ openMS, replayMS float64 }

// zeroStoreStats is the store layer's metrics on a workload without a store.
func zeroStoreStats() map[string]float64 {
	return map[string]float64{"store.append_row_us": 0, "store.end_ms": 0, "store.wal_bytes_per_job": 0}
}

// workload is one benchmark input set. build makes a fresh stack; a non-nil
// tr wires the traced seams into it. A run builds the stack setups times
// (setup_s is the median build time) and measures each build for an equal
// share of the run's seconds, so no stack lives long enough for the fleet
// manager's retained sweeps to grow the heap without bound. The first build
// first runs rssOps operations before the peak resident memory is read: a
// fixed amount of work, so the figure does not move with throughput. Cheap
// set-ups repeat more, so their median is steady too.
type workload struct {
	name   string
	build  func(e *env, storeName string, tr *samples) (stack, error)
	setups int
	rssOps int
}

// The workloads stress different layers: report is cell execution with one
// cold parse per app and no HTTP, store or wire; sweep-micro is dominated by
// admission, queueing, NDJSON and WAL writes around ~1 ms cells; and
// sweep-full-remote by the sim loop and the JSON wire codec, with no store.
var workloads = map[string]*workload{
	"report":            {name: "report", build: buildReport, setups: 3, rssOps: 2},
	"sweep-micro":       {name: "sweep-micro", build: buildSweepMicro, setups: 15, rssOps: 300},
	"sweep-full-remote": {name: "sweep-full-remote", build: buildSweepFullRemote, setups: 6, rssOps: 12},
}

// phase is one measured closed-loop window, or several added together.
type phase struct {
	lat         []float64 // successful op latencies, ms
	ops, failed int
	jobs        int
	elapsed     time.Duration
	cpu         time.Duration
	err         error // first failure

	// rates and cpuPerJob are each throughput window's jobs per second and
	// process CPU milliseconds per job (see progress).
	rates, cpuPerJob []float64

	allocs, allocBytes, gcCPU float64 // runtime/metrics deltas
}

func (p *phase) add(q phase) {
	p.lat = append(p.lat, q.lat...)
	p.ops += q.ops
	p.failed += q.failed
	p.jobs += q.jobs
	p.elapsed += q.elapsed
	p.cpu += q.cpu
	if p.err == nil {
		p.err = q.err
	}
	p.allocs += q.allocs
	p.allocBytes += q.allocBytes
	p.gcCPU += q.gcCPU
	p.rates = append(p.rates, q.rates...)
	p.cpuPerJob = append(p.cpuPerJob, q.cpuPerJob...)
}

// maxWindow is the longest a throughput window is meant to last.
const maxWindow = time.Second

// progress cuts a measured window's job completions into throughput
// windows. The measured time is split into equal parts of at most
// maxWindow; a window closes at the first completion past the end of its
// part, the next opens there, and the last closes at the last completion
// before the deadline if it spans at least half a part. Completions after
// the deadline are not counted, so the ragged end of the closed loop, with
// fewer clients busy, weighs on no window — unless none came before it, so
// that a measured window shorter than one operation still yields one
// throughput window. The median over many short windows is what the
// end-to-end throughput and CPU figures report: a burst of host contention
// spoils a few windows, not the run.
type progress struct {
	start    time.Time
	part     time.Duration
	deadline time.Time

	mu               sync.Mutex
	parts            int // parts ended so far
	open, last       time.Time
	openCPU, lastCPU time.Duration
	jobs             int // completed since open
	rates, cpuPerJob []float64
}

func newProgress(d time.Duration) *progress {
	now := time.Now()
	parts := max(1, int((d+maxWindow-1)/maxWindow))
	return &progress{
		start: now, part: d / time.Duration(parts), deadline: now.Add(d),
		parts: 1, open: now, openCPU: cpuTime(),
	}
}

// done records n jobs completed now.
func (p *progress) done(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if now.After(p.deadline) && (len(p.rates) > 0 || p.jobs > 0) {
		return
	}
	p.jobs += n
	p.last, p.lastCPU = now, cpuTime()
	if now.Sub(p.start) >= time.Duration(p.parts)*p.part {
		p.close()
		for now.Sub(p.start) >= time.Duration(p.parts)*p.part {
			p.parts++
		}
	}
}

// close ends the open window at the last completion.
func (p *progress) close() {
	if p.jobs == 0 || !p.last.After(p.open) {
		return
	}
	p.rates = append(p.rates, float64(p.jobs)/p.last.Sub(p.open).Seconds())
	p.cpuPerJob = append(p.cpuPerJob, ms(p.lastCPU-p.openCPU)/float64(p.jobs))
	p.open, p.openCPU, p.jobs = p.last, p.lastCPU, 0
}

// finish closes the last window if it is long enough, and returns the
// windows' figures.
func (p *progress) finish() (rates, cpuPerJob []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.last.Sub(p.open) >= p.part/2 {
		p.close()
	}
	return p.rates, p.cpuPerJob
}

// measure runs the closed loop until d has passed, cutting its job
// completions into throughput windows.
func measure(s stack, d time.Duration) phase {
	var pr *progress
	p := closedLoop(s, func(start time.Time) bool { return time.Since(start) < d }, func() func(int) {
		pr = newProgress(d)
		return pr.done
	})
	p.rates, p.cpuPerJob = pr.finish()
	return p
}

// measureOps runs the closed loop until n operations have been started.
func measureOps(s stack, n int) phase {
	var started atomic.Int64
	return closedLoop(s, func(time.Time) bool { return started.Add(1) <= int64(n) }, func() func(int) { return nil })
}

// closedLoop runs s.clients() closed-loop clients while more says so: each
// client starts its next op only when its previous one has finished. The
// window ends when the last op in flight completes. begin is called at the
// window's start and returns the ops' done callback.
func closedLoop(s stack, more func(start time.Time) bool, begin func() func(int)) phase {
	ctx := context.Background()
	runtime.GC() // start every window from the same heap state, as testing.B does
	var mu sync.Mutex
	var p phase
	rt0 := readRuntime()
	cpu0 := cpuTime()
	done := begin()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < s.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more(start) {
				t := time.Now()
				jobs, err := s.op(ctx, done)
				lat := ms(time.Since(t))
				mu.Lock()
				p.ops++
				p.jobs += jobs
				if err != nil {
					p.failed++
					if p.err == nil {
						var mm *mismatchError
						if !errors.As(err, &mm) {
							err = mismatchf("operation failed: %v", err)
						}
						p.err = err
					}
				} else {
					p.lat = append(p.lat, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	p.allocs = rt1[0] - rt0[0]
	p.allocBytes = rt1[1] - rt0[1]
	p.gcCPU = rt1[2] - rt0[2]
	return p
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() [3]float64 {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var out [3]float64
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// runTraced builds the stack w.setups times with its seams wrapped and
// measures an equal share of d on each build, alternating windows with
// recording off and on (off, on, on, off: a linear drift in host speed weighs
// on both halves alike; their difference is the tracing overhead). Within a
// build one fleet.Manager serves both halves, and its sweep IDs never
// repeat. The store metrics come from the last build, after its measured
// phase; then every layer is probed directly on the workload's cells.
func runTraced(e *env, w *workload, d time.Duration) (result, error) {
	var res result
	tr := newSamples()
	var a, b phase // untraced, traced
	var vals map[string]float64
	var cells []harness.Cell
	var slots int
	var rp readPath
	slice := d / time.Duration(4*w.setups)
	for i := 0; i < w.setups; i++ {
		res.Attempted++ // the build's checked warm-up pass
		s, err := w.build(e, fmt.Sprintf("store-%d", i), tr)
		if err != nil {
			res.Failed++
			return res, err
		}
		for j := 0; j < 4 && a.err == nil && b.err == nil; j++ {
			traced := j == 1 || j == 2
			tr.record(traced)
			if traced {
				b.add(measure(s, slice))
			} else {
				a.add(measure(s, slice))
			}
		}
		tr.record(false)
		var statsErr error
		if i == w.setups-1 {
			vals, statsErr = s.storeStats()
			cells, slots = s.cells(), s.slots()
		}
		var closeErr error
		rp, closeErr = s.close()
		if err := errors.Join(a.err, b.err, statsErr, closeErr); err != nil {
			res.Attempted += a.ops + b.ops
			res.Failed += a.failed + b.failed
			return res, err
		}
	}
	res.Attempted += a.ops + b.ops
	res.Failed += a.failed + b.failed
	if a.jobs == 0 || b.jobs == 0 || len(a.lat) == 0 || len(b.lat) == 0 {
		return res, fmt.Errorf("no completed operations in %v", d/2)
	}

	probe, err := probeLayers(cells)
	if err != nil {
		return res, err
	}
	for k, v := range probe {
		vals[k] = v
	}
	var opSum float64
	for _, l := range b.lat {
		opSum += l
	}
	untracedP50 := median(a.lat)
	vals["op.samples"] = float64(a.ops)
	vals["op.p99_ms"] = quantile(a.lat, 0.99)
	vals["trace_overhead_frac"] = (median(b.lat) - untracedP50) / untracedP50
	vals["harness.prefetch_frac"] = tr.sum("harness.prefetch_ms") / opSum
	vals["runtime.allocs_per_job"] = a.allocs / float64(a.jobs)
	vals["runtime.alloc_bytes_per_job"] = a.allocBytes / float64(a.jobs)
	vals["runtime.gc_cpu_frac"] = a.gcCPU / a.cpu.Seconds()
	vals["fleet.queue_wait_ms.p50"] = median(tr.get("fleet.queue_wait_ms"))
	vals["fleet.queue_wait_ms.p99"] = quantile(tr.get("fleet.queue_wait_ms"), 0.99)
	vals["fleet.run_ms.p50"] = median(tr.get("fleet.run_ms"))
	vals["fleet.run_ms.p99"] = quantile(tr.get("fleet.run_ms"), 0.99)
	vals["fleet.busy_frac"] = tr.sum("fleet.run_ms") / (ms(b.elapsed) * float64(slots))
	vals["fleet.submit_ms.p50"] = median(tr.get("fleet.submit_ms"))
	vals["fleet.submit_ms.p99"] = quantile(tr.get("fleet.submit_ms"), 0.99)
	vals["fleet.first_row_ms.p50"] = median(tr.get("fleet.first_row_ms"))
	vals["shard.node_run_ms.p50"] = median(tr.get("shard.node_run_ms"))
	vals["shard.node_run_ms.p99"] = quantile(tr.get("shard.node_run_ms"), 0.99)
	vals["shard.wire_bytes_per_job"] = tr.sum("shard.wire_bytes") / float64(b.jobs)
	vals["shard.wire_overhead_ms.p50"] = median(tr.get("shard.wire_overhead_ms"))
	vals["store.open_ms"] = rp.openMS
	vals["store.replay_ms"] = rp.replayMS
	m, err := metricsOf(perLayer, vals)
	res.Metrics = m
	return res, err
}
