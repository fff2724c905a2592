package harness

import (
	"context"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// spaCell is the DOM-heavy staged-pipeline workload: SPA-Feed under
// GreenWeb-I, microbenchmark trace. BENCH_PR9.json records the serial vs
// stage-parallel pair as measured when staging landed.
func spaCell(tb testing.TB) Cell {
	tb.Helper()
	app, ok := apps.ByName("SPA-Feed")
	if !ok {
		tb.Fatal("SPA-Feed not registered")
	}
	return Cell{App: app, Kind: GreenWebI}
}

func benchWarmSPA(b *testing.B, workers int) {
	cell := spaCell(b)
	ctx := WithStageWorkers(context.Background(), workers)
	if _, err := ExecuteCell(ctx, cell); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteCell(ctx, cell); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteCellWarmSPASerial: the DOM-heavy cell on the serial
// pipeline (pre-PR 9 behavior).
func BenchmarkExecuteCellWarmSPASerial(b *testing.B) { benchWarmSPA(b, 1) }

// BenchmarkExecuteCellWarmSPAStaged4: the same cell with style/layout/paint
// sharded across four stage cores.
func BenchmarkExecuteCellWarmSPAStaged4(b *testing.B) { benchWarmSPA(b, 4) }

// meanInteractionLatencyMS averages ProductionLatency over the interaction
// frames (skipping the load frame), in milliseconds of virtual time.
func meanInteractionLatencyMS(r *Run) float64 {
	var sum sim.Duration
	n := 0
	for _, fr := range r.FrameResults[1:] {
		sum += fr.ProductionLatency
		n++
	}
	if n == 0 {
		return 0
	}
	return sum.Seconds() * 1e3 / float64(n)
}

// TestStagedRenderCutsFrameLatency: sharding SPA-Feed's render stages
// across four stage cores cuts the modeled (virtual-time) interaction frame
// latency at least 1.3× against the serial pipeline, same governor.
func TestStagedRenderCutsFrameLatency(t *testing.T) {
	app := spaCell(t).App
	serial, err := ExecuteCell(WithStageWorkers(context.Background(), 1), Cell{App: app, Kind: GreenWebI, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	staged, err := ExecuteCell(WithStageWorkers(context.Background(), 4), Cell{App: app, Kind: GreenWebI, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	serialMS, stagedMS := meanInteractionLatencyMS(serial), meanInteractionLatencyMS(staged)
	if serialMS/stagedMS < 1.3 {
		t.Fatalf("modeled frame latency %.3f ms serial vs %.3f ms staged: %.2f× improvement, want ≥ 1.3×",
			serialMS, stagedMS, serialMS/stagedMS)
	}
}
