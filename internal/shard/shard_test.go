package shard

import (
	"bytes"
	"context"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
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
