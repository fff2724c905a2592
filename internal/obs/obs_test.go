package obs

import (
	"context"
	"testing"
)

func TestEnabledContext(t *testing.T) {
	ctx := context.Background()
	if !EnabledIn(ctx) || !EnabledIn(nil) {
		t.Error("a context that does not say must be enabled")
	}
	off := ContextWithObs(ctx, false)
	if EnabledIn(off) {
		t.Error("context disable not observed")
	}
	// The innermost setting wins in both directions.
	if !EnabledIn(ContextWithObs(off, true)) {
		t.Error("context enable did not override an outer disable")
	}
	if EnabledIn(ContextWithObs(ContextWithObs(ctx, true), false)) {
		t.Error("context disable did not override an outer enable")
	}
}
