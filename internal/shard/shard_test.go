package shard

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/obs"
)

// topologyJobs is a sweep that exercises the paper grid AND the fault
// machinery: clean cells, thermally capped cells, and storm-doomed cells
// whose retry/quarantine interleavings must not depend on topology.
func topologyJobs() []fleet.Job {
	doomed := &faults.Spec{
		Seed:       3,
		DVFS:       &faults.DVFSSpec{DenyProb: 0.95},
		StormAbort: 3,
	}
	capped := faults.Default(21)
	var jobs []fleet.Job
	for _, app := range []string{"MSN", "Todo"} {
		for _, kind := range []harness.Kind{harness.Perf, harness.GreenWebI} {
			jobs = append(jobs, fleet.Job{App: app, Kind: kind, Phase: fleet.Full})
			jobs = append(jobs, fleet.Job{App: app, Kind: kind, Phase: fleet.Full, Faults: capped})
		}
		// GreenWeb-I requests frequency switches constantly, so the 0.95
		// deny probability crosses the storm threshold within a few frames.
		jobs = append(jobs, fleet.Job{App: app, Kind: harness.GreenWebI, Phase: fleet.Full, Faults: doomed})
	}
	return jobs
}

// render runs the sweep on a runner and returns the deterministic NDJSON.
func render(t *testing.T, r fleet.Runner, jobs []fleet.Job) string {
	t.Helper()
	defer r.Close()
	var buf bytes.Buffer
	if err := fleet.WriteResults(&buf, fleet.RunSweep(context.Background(), r, jobs), true); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// localPool builds a fleet.Pool over nodes in-process nodes of workers
// slots each, sharing one retry-ladder template.
func localPool(nodes, workers, queueDepth int, opts fleet.Options) *fleet.Pool {
	opts.Workers = workers
	ns := make([]fleet.Node, nodes)
	for i := range ns {
		ns[i] = fleet.NewLocalNode(i, opts)
	}
	return fleet.NewWithNodes(ns, queueDepth)
}

// fakeExec builds an Execute override with per-app latencies.
func fakeExec(d map[string]time.Duration) func(context.Context, fleet.Job) (*harness.Run, error) {
	return func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		select {
		case <-time.After(d[j.App]):
			return &harness.Run{Frames: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestClusterMetricsExposition: the cluster serves the greenweb_fleet_*
// family (dashboard continuity) plus per-node steal/job counters and
// per-partition depth gauges.
func TestClusterMetricsExposition(t *testing.T) {
	exec := fakeExec(map[string]time.Duration{"slow": 20 * time.Millisecond, "fast": time.Millisecond})
	c := localPool(2, 1, 0, fleet.Options{Execute: exec})
	defer c.Close()
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	jobs := make([]fleet.Job, 12)
	for i := range jobs {
		app := "fast"
		if i%2 == 0 {
			app = "slow"
		}
		jobs[i] = fleet.Job{App: app}
	}
	fleet.RunSweep(context.Background(), c, jobs)

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
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
			return &harness.Run{}, nil
		}
	}
	c := localPool(3, 2, 0, fleet.Options{Execute: exec})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	jobs := make([]fleet.Job, 40)
	res := fleet.RunSweep(ctx, c, jobs)
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
