package harness

import (
	"context"

	"github.com/wattwiseweb/greenweb/internal/browser"
)

// A run's host-side settings ride on its context: callers wrap the context
// they hand to ExecuteCell, a Suite or a fleet sweep, and executeHTML
// applies the settings to the engine before LoadPage. None of them changes
// an output byte except the stage-worker count, which changes the modeled
// machine.

type (
	stageWorkersKey struct{}
	treeWalkKey     struct{}
)

// WithStageWorkers returns a context whose harness executions run with n
// stage threads (0 or 1 = serial frame production). n outside
// [0, browser.MaxStageWorkers] panics — validate external input with
// ValidStageWorkers first.
func WithStageWorkers(ctx context.Context, n int) context.Context {
	if !ValidStageWorkers(n) {
		panic("harness: stage workers out of range")
	}
	return context.WithValue(ctx, stageWorkersKey{}, n)
}

// stageWorkersIn reports the context's stage-worker count (0 = none set).
func stageWorkersIn(ctx context.Context) int {
	n, _ := ctx.Value(stageWorkersKey{}).(int)
	return n
}

// ValidStageWorkers reports whether n is an acceptable stage-worker count
// for flag and job validation.
func ValidStageWorkers(n int) bool { return n >= 0 && n <= browser.MaxStageWorkers }

// WithTreeWalk returns a context whose harness executions run page scripts
// on the tree-walking interpreter instead of the bytecode VM. Both engines
// charge the identical op sequence, so every output byte is the same; tests
// use it to prove that, and benchmarks to measure what the VM saves.
func WithTreeWalk(ctx context.Context) context.Context {
	return context.WithValue(ctx, treeWalkKey{}, true)
}

// treeWalkIn reports whether the context selects the tree-walker.
func treeWalkIn(ctx context.Context) bool {
	on, _ := ctx.Value(treeWalkKey{}).(bool)
	return on
}
