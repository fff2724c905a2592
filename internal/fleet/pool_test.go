package fleet

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/harness"
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
