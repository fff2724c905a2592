package fleet

import (
	"context"

	"github.com/wattwiseweb/greenweb/internal/harness"
)

// SuiteRunner adapts a Pool to harness.Prefetcher: the suite's generators
// hand it their whole cell working set, it fans the cells out as fleet
// jobs, and the results merge back keyed by cell. Each cell executes with
// harness.ExecuteCell semantics on an isolated device, so a fleet-backed
// report is byte-identical to the sequential one.
type SuiteRunner struct {
	ctx  context.Context
	pool *Pool
}

// NewSuiteRunner binds the pool to ctx: its run settings reach every job
// on an in-process node, and cancelling it aborts any prefetch in flight.
func NewSuiteRunner(ctx context.Context, pool *Pool) *SuiteRunner {
	if ctx == nil {
		ctx = context.Background()
	}
	return &SuiteRunner{ctx: ctx, pool: pool}
}

// Prefetch implements harness.Prefetcher.
func (r *SuiteRunner) Prefetch(cells []harness.Cell) (map[harness.Cell]*harness.Run, error) {
	jobs := make([]Job, len(cells))
	for i, c := range cells {
		phase := Micro
		if c.Full {
			phase = Full
		}
		jobs[i] = Job{App: c.App.Name, Kind: c.Kind, Phase: phase}
	}
	results := r.pool.RunSweep(r.ctx, jobs)
	out := make(map[harness.Cell]*harness.Run, len(cells))
	for i, res := range results {
		if res.Err != nil {
			return nil, res.Err
		}
		out[cells[i]] = res.Run
	}
	return out, nil
}
