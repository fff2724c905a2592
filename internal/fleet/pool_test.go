package fleet

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/obs"
)

// topologyJobs is a sweep that exercises the paper grid AND the fault
// machinery: clean cells, thermally capped cells, and storm-doomed cells
// whose retry/quarantine interleavings must not depend on topology.
func topologyJobs() []Job {
	doomed := &faults.Spec{
		Seed:       3,
		DVFS:       &faults.DVFSSpec{DenyProb: 0.95},
		StormAbort: 3,
	}
	capped := faults.Default(21)
	var jobs []Job
	for _, app := range []string{"MSN", "Todo"} {
		for _, kind := range []harness.Kind{harness.Perf, harness.GreenWebI} {
			jobs = append(jobs, Job{App: app, Kind: kind, Phase: Full})
			jobs = append(jobs, Job{App: app, Kind: kind, Phase: Full, Faults: capped})
		}
		// GreenWeb-I requests frequency switches constantly, so the 0.95
		// deny probability crosses the storm threshold within a few frames.
		jobs = append(jobs, Job{App: app, Kind: harness.GreenWebI, Phase: Full, Faults: doomed})
	}
	return jobs
}

// renderSweep runs the sweep on a runner and returns the deterministic
// NDJSON.
func renderSweep(t *testing.T, r Runner, jobs []Job) string {
	t.Helper()
	defer r.Close()
	var buf bytes.Buffer
	if err := WriteResults(&buf, RunSweep(context.Background(), r, jobs), true); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// localPool builds a Pool over nodes in-process nodes of workers slots
// each, sharing one retry-ladder template.
func localPool(nodes, workers, queueDepth int, opts Options) *Pool {
	opts.Workers = workers
	ns := make([]Node, nodes)
	for i := range ns {
		ns[i] = NewLocalNode(i, opts)
	}
	return NewWithNodes(ns, queueDepth)
}

// latencyExec builds an Execute override with per-app latencies.
func latencyExec(d map[string]time.Duration) func(context.Context, Job) (*harness.Run, error) {
	return func(ctx context.Context, j Job) (*harness.Run, error) {
		select {
		case <-time.After(d[j.App]):
			return &harness.Run{Frames: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestTopologyDeterminism pins the standing guarantee at every tested
// node×worker count: sweep NDJSON — including a faulted sweep's retry and
// quarantine provenance — is byte-identical to the sequential path at
// 1×1, 2×4, and 4×2.
func TestTopologyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace sweep ×4 topologies")
	}
	jobs := topologyJobs()
	nodeOpts := Options{MaxAttempts: 2, RetryBaseDelay: time.Millisecond}

	seqOpts := nodeOpts
	seqOpts.Workers = 1
	want := renderSweep(t, New(seqOpts), jobs)
	if !strings.Contains(want, `"quarantined":true`) {
		t.Fatalf("sweep exercised no quarantine; doomed spec too weak:\n%s", want)
	}

	for _, topo := range []struct{ nodes, workers int }{{1, 1}, {2, 4}, {4, 2}} {
		c := localPool(topo.nodes, topo.workers, 0, nodeOpts)
		got := renderSweep(t, c, jobs)
		if got != want {
			t.Fatalf("%d×%d topology diverged from sequential output:\n--- got\n%s--- want\n%s",
				topo.nodes, topo.workers, got, want)
		}
	}
}

// TestWorkStealing: a node that drains its home partition steals from its
// loaded sibling instead of idling.
func TestWorkStealing(t *testing.T) {
	exec := latencyExec(map[string]time.Duration{"slow": 30 * time.Millisecond, "fast": time.Millisecond})
	c := localPool(2, 1, 64, Options{Execute: exec})
	defer c.Close()

	// Round-robin partitioning: even submissions land on node 0's
	// partition. Make those the slow ones, so node 1 runs dry and steals.
	jobs := make([]Job, 20)
	for i := range jobs {
		app := "fast"
		if i%2 == 0 {
			app = "slow"
		}
		jobs[i] = Job{App: app, Kind: harness.Perf, Phase: Full}
	}
	res := RunSweep(context.Background(), c, jobs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Job.App != jobs[i].App {
			t.Fatalf("row %d carries job %s; submission-order merge broken", i, r.Job.App)
		}
	}
	if c.Steals(1) == 0 {
		t.Fatal("node 1 never stole from node 0's backed-up partition")
	}
	st := c.Stats()
	if st.Done != 20 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 20 done", st)
	}
}

// TestClusterBackpressureAndClose: a full cluster queue blocks Start until
// ctx cancels; Close rejects further submissions and drains what is queued.
func TestClusterBackpressureAndClose(t *testing.T) {
	block := make(chan struct{})
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		select {
		case <-block:
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := localPool(2, 1, 2, Options{Execute: exec})

	var wg sync.WaitGroup
	deliver := func(Result) { wg.Done() }
	// 2 running + 2 queued fill the cluster.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		if err := c.Start(context.Background(), Job{App: "a"}, nil, deliver); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Start(ctx, Job{App: "b"}, nil, nil); err != context.DeadlineExceeded {
		t.Fatalf("Start on full queue = %v, want DeadlineExceeded", err)
	}
	close(block)
	wg.Wait()
	c.Close()
	if err := c.Start(context.Background(), Job{App: "c"}, nil, nil); err != ErrClosed {
		t.Fatalf("Start after Close = %v, want ErrClosed", err)
	}
}

// TestClusterMetricsExposition: the cluster serves the greenweb_fleet_*
// family (dashboard continuity) plus per-node steal/job counters and
// per-partition depth gauges.
func TestClusterMetricsExposition(t *testing.T) {
	exec := latencyExec(map[string]time.Duration{"slow": 20 * time.Millisecond, "fast": time.Millisecond})
	c := localPool(2, 1, 0, Options{Execute: exec})
	defer c.Close()
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	jobs := make([]Job, 12)
	for i := range jobs {
		app := "fast"
		if i%2 == 0 {
			app = "slow"
		}
		jobs[i] = Job{App: app}
	}
	RunSweep(context.Background(), c, jobs)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"greenweb_fleet_jobs_done_total 12",
		"greenweb_shard_nodes 2",
		`greenweb_shard_steals_total{node="0"}`,
		`greenweb_shard_steals_total{node="1"}`,
		`greenweb_shard_node_jobs_total{node="0"}`,
		`greenweb_shard_partition_depth{partition="1"} 0`,
		"# TYPE greenweb_fleet_job_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestClusterDeliverExactlyOnceUnderCancel mirrors the pool guarantee:
// every submission delivers exactly one terminal result even when the sweep
// context dies mid-flight.
func TestClusterDeliverExactlyOnceUnderCancel(t *testing.T) {
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
			return &harness.Run{}, nil
		}
	}
	c := localPool(3, 2, 0, Options{Execute: exec})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	jobs := make([]Job, 40)
	res := RunSweep(ctx, c, jobs)
	if len(res) != 40 {
		t.Fatalf("got %d results, want 40", len(res))
	}
	var ok, failed int
	for _, r := range res {
		if r.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	if ok+failed != 40 {
		t.Fatalf("ok=%d failed=%d, want 40 total", ok, failed)
	}
}

// TestClusterCloseRacesSubmissionsAndSteals: Close while submitters hammer
// Start and an imbalanced load keeps steal paths hot. Every accepted
// submission must deliver exactly once, every post-close Start must return
// the typed ErrClosed, and no goroutine may outlive the cluster.
// Meaningful under -race, which the CI test job runs.
func TestClusterCloseRacesSubmissionsAndSteals(t *testing.T) {
	before := runtime.NumGoroutine()
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		d := time.Millisecond
		if j.App == "slow" {
			d = 5 * time.Millisecond
		}
		select {
		case <-time.After(d):
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := localPool(3, 2, 16, Options{Execute: exec})

	var accepted, delivered, rejected atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				app := "fast"
				if (g+i)%3 == 0 {
					app = "slow" // uneven latency keeps partitions imbalanced
				}
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				err := c.Start(ctx, Job{App: app}, nil, func(Result) { delivered.Add(1) })
				cancel()
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrClosed):
					rejected.Add(1)
					return
				case errors.Is(err, context.DeadlineExceeded):
					// queue stayed full through the timeout; keep going
				default:
					t.Errorf("Start returned unexpected error: %v", err)
					return
				}
			}
		}(g)
	}

	time.Sleep(20 * time.Millisecond) // let submissions and steals build up
	c.Close()
	close(stop)
	wg.Wait()

	if err := c.Start(context.Background(), Job{App: "late"}, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Start after Close = %v, want ErrClosed", err)
	}
	// Close drains the queue: everything accepted was delivered exactly once.
	deadline := time.Now().Add(2 * time.Second)
	for delivered.Load() != accepted.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != accepted.Load() {
		t.Fatalf("accepted %d submissions but delivered %d results", accepted.Load(), delivered.Load())
	}
	// Pullers and node pools must be gone; allow the runtime a moment to
	// retire exiting goroutines.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked across Close: %d before, %d after", before, runtime.NumGoroutine())
}

// TestEvictRehomesQueuedJobs: evicting a node moves its queued jobs onto
// live siblings, and the sweep completes as if the node never existed.
func TestEvictRehomesQueuedJobs(t *testing.T) {
	block := make(chan struct{})
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		select {
		case <-block:
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := localPool(2, 1, 16, Options{Execute: exec})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		if err := c.Start(context.Background(), Job{App: "a"}, nil, func(r Result) {
			if r.Err != nil {
				t.Errorf("job failed after eviction: %v", r.Err)
			}
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	go c.Evict(0)
	time.Sleep(5 * time.Millisecond) // let the eviction land while jobs block
	close(block)
	wg.Wait()
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	if c.Rehomed(0) == 0 {
		t.Fatal("nothing re-homed off the evicted node's partition")
	}
	c.Evict(0) // idempotent
	if c.Evictions() != 1 {
		t.Fatal("double eviction counted twice")
	}
}

// TestEvictLastNodeStrandsJobs: with no live sibling, queued jobs are
// delivered as typed ErrNoNodes failures and later submissions are refused
// with the same error.
func TestEvictLastNodeStrandsJobs(t *testing.T) {
	block := make(chan struct{})
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		select {
		case <-block:
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := localPool(1, 1, 8, Options{Execute: exec})
	defer c.Close()

	results := make(chan Result, 3)
	for i := 0; i < 3; i++ {
		if err := c.Start(context.Background(), Job{App: "a"}, nil, func(r Result) {
			results <- r
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the single puller to hold one job in flight; the other two
	// are queued and will strand.
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Running == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	go c.Evict(0)
	time.Sleep(5 * time.Millisecond)
	close(block) // let the in-flight job finish so the node can close

	var failed, succeeded int
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			if r.Err == nil {
				succeeded++
			} else if errors.Is(r.Err, ErrNoNodes) {
				failed++
			} else {
				t.Fatalf("stranded job got %v, want ErrNoNodes", r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("stranded job never delivered")
		}
	}
	if succeeded != 1 || failed != 2 {
		t.Fatalf("succeeded=%d failed=%d, want 1 in-flight success and 2 stranded failures", succeeded, failed)
	}
	if err := c.Start(context.Background(), Job{App: "late"}, nil, nil); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Start on fully evicted cluster = %v, want ErrNoNodes", err)
	}
}
