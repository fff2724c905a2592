package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/ledger"
)

// runFingerprint folds everything a report could print into one string:
// energies to the nanojoule, every frame's window, config and cycle counts,
// the switch statistics, and the attribution totals. Two runs with equal
// fingerprints produce byte-identical reports.
func runFingerprint(r *Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E=%.12f T=%.12f F=%d vI=%.9f vU=%.9f sw=%+v load=%v\n",
		float64(r.Energy), float64(r.TotalEnergy), r.Frames,
		r.ViolationI, r.ViolationU, r.Switches, r.LoadLatency)
	fmt.Fprintf(&b, "frame=%.12f idle=%.12f event=%.12f stage=%.12f spans=%d\n",
		float64(r.FrameEnergy), float64(r.IdleEnergy), float64(r.EventEnergy),
		float64(r.StageEnergy), len(r.Spans))
	for _, fr := range r.FrameResults {
		fmt.Fprintf(&b, "f%d %v-%v %v mw=%d st=%d\n",
			fr.Seq, fr.Begin, fr.End, fr.Config, fr.MainWork, len(fr.Stages))
	}
	return b.String()
}

func stagedRun(t *testing.T, app *apps.App, kind Kind, workers int, spec *faults.Spec) *Run {
	t.Helper()
	ctx := WithStageWorkers(context.Background(), workers)
	run, err := ExecuteCell(ctx, Cell{App: app, Kind: kind, Repeats: 1, Faults: spec})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestStageWorkerDeterminism pins the pipeline's reproducibility contract at
// every supported mode: for each stage-worker count, two independent
// executions agree to the joule and the frame — including under injected
// hardware faults.
func TestStageWorkerDeterminism(t *testing.T) {
	app, ok := apps.ByName("SPA-Feed")
	if !ok {
		t.Fatal("SPA-Feed not registered")
	}
	for _, workers := range []int{1, 2, 4} {
		for _, spec := range []*faults.Spec{nil, faults.Default(7)} {
			a := stagedRun(t, app, GreenWebIStaged, workers, spec)
			b := stagedRun(t, app, GreenWebIStaged, workers, spec)
			if fa, fb := runFingerprint(a), runFingerprint(b); fa != fb {
				t.Errorf("workers=%d faulted=%v: runs diverged:\n%s\nvs\n%s",
					workers, spec != nil, fa, fb)
			}
		}
	}
}

// TestStageSerialParity: stage-worker count 1 IS the pre-staging engine —
// same code path, same measurements — and the staged governor kind
// degenerates to plain GreenWeb-I scheduling on a serial pipeline.
func TestStageSerialParity(t *testing.T) {
	for _, name := range []string{"Cnet", "SPA-Feed"} {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		// workers=1 (explicit serial) vs workers unset (default serial).
		forced := stagedRun(t, app, GreenWebI, 1, nil)
		plain, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebI, Repeats: 1})
		if err != nil {
			t.Fatal(err)
		}
		if fa, fb := runFingerprint(forced), runFingerprint(plain); fa != fb {
			t.Errorf("%s: serial override diverged from default serial:\n%s\nvs\n%s", name, fa, fb)
		}
		if plain.StageEnergy != 0 {
			t.Errorf("%s: serial run attributed stage energy %v", name, plain.StageEnergy)
		}
		for _, fr := range plain.FrameResults {
			if len(fr.Stages) != 0 {
				t.Errorf("%s: serial frame %d carries stage timings", name, fr.Seq)
			}
		}
	}
}

// TestStagedFrameShape: a staged run records exactly the stage graph —
// three timings per rendered frame in dependency order with disjoint
// windows inside the frame, and the ledger's stage attribution stays within
// the frame partition.
func TestStagedFrameShape(t *testing.T) {
	app, _ := apps.ByName("SPA-Feed")
	run := stagedRun(t, app, GreenWebIStaged, 4, nil)
	staged := 0
	for _, fr := range run.FrameResults {
		if len(fr.Stages) == 0 {
			continue
		}
		staged++
		if len(fr.Stages) != 3 {
			t.Fatalf("frame %d: %d stage timings, want 3", fr.Seq, len(fr.Stages))
		}
		var critSum int64
		for s, st := range fr.Stages {
			if int(st.Stage) != s {
				t.Fatalf("frame %d: stage %d out of order (%v)", fr.Seq, s, st.Stage)
			}
			if st.CritCycles <= 0 || st.TotalCycles < st.CritCycles {
				t.Fatalf("frame %d stage %v: bad cycles crit=%d total=%d",
					fr.Seq, st.Stage, st.CritCycles, st.TotalCycles)
			}
			if st.Start < fr.Begin || st.End > fr.End || st.End < st.Start {
				t.Fatalf("frame %d stage %v: window [%v,%v] outside frame [%v,%v]",
					fr.Seq, st.Stage, st.Start, st.End, fr.Begin, fr.End)
			}
			if s > 0 && st.Start < fr.Stages[s-1].End {
				t.Fatalf("frame %d: stage %v overlaps previous", fr.Seq, st.Stage)
			}
			critSum += st.CritCycles
		}
		if critSum >= fr.MainWork {
			t.Fatalf("frame %d: critical path %d not below serial sum %d", fr.Seq, critSum, fr.MainWork)
		}
	}
	if staged == 0 {
		t.Fatal("no staged frames recorded")
	}
	if run.StageEnergy <= 0 || run.StageEnergy > run.FrameEnergy {
		t.Fatalf("stage energy %v outside (0, frame energy %v]",
			float64(run.StageEnergy), float64(run.FrameEnergy))
	}
	nStage := 0
	for _, sp := range run.Spans {
		if sp.Kind == ledger.KindStage {
			nStage++
		}
	}
	if nStage != 3*staged {
		t.Fatalf("%d stage spans for %d staged frames", nStage, staged)
	}
}

// TestStageSchedulerRace drives staged executions from concurrent
// goroutines; under -race this verifies the stage scheduler and its shared
// package state (worker defaults, obs instruments, memoized selectors) are
// race-free, and the results must still be deterministic.
func TestStageSchedulerRace(t *testing.T) {
	app, _ := apps.ByName("SPA-Board")
	const n = 4
	prints := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := WithStageWorkers(context.Background(), 4)
			run, err := ExecuteCell(ctx, Cell{App: app, Kind: GreenWebIStaged, Repeats: 1})
			if err != nil {
				t.Error(err)
				return
			}
			prints[i] = runFingerprint(run)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if prints[i] != prints[0] {
			t.Fatalf("concurrent run %d diverged", i)
		}
	}
}

// TestStagedVectorEnergyAtEqualQoS: on the DOM-heavy app the per-stage
// configuration dimension recovers ladder slack — GreenWeb-I-staged spends
// no more energy than uniform GreenWeb-I on the same staged pipeline while
// meeting the same QoS.
func TestStagedVectorEnergyAtEqualQoS(t *testing.T) {
	app, _ := apps.ByName("SPA-Feed")
	ctx := WithStageWorkers(context.Background(), 4)
	uni, err := ExecuteCell(ctx, Cell{App: app, Kind: GreenWebI})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ExecuteCell(ctx, Cell{App: app, Kind: GreenWebIStaged})
	if err != nil {
		t.Fatal(err)
	}
	if st.Energy > uni.Energy {
		t.Errorf("staged vector energy %.6f J above uniform %.6f J",
			float64(st.Energy), float64(uni.Energy))
	}
	if st.ViolationI > uni.ViolationI {
		t.Errorf("staged vector violations %.3f%% above uniform %.3f%%",
			st.ViolationI, uni.ViolationI)
	}
	if st.Frames != uni.Frames {
		t.Errorf("frame counts differ: staged %d vs uniform %d", st.Frames, uni.Frames)
	}
}
