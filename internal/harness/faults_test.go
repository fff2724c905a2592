package harness

import (
	"context"
	"errors"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/ledger"
)

// thermalOnlySpec caps the A15 cluster without any probabilistic faults, so
// energy comparisons under the cap are exact rather than statistical.
func thermalOnlySpec() *faults.Spec {
	th := acmp.DefaultThermalParams()
	return &faults.Spec{Seed: 11, Thermal: &th}
}

// TestFaultSweepGreenWebBeatsPerfUnderThermalCap is the PR's headline
// robustness claim: with the thermal governor throttling sustained peak
// residency, GreenWeb-I still spends less energy than Perf on the same
// trace — degradation is graceful, not a collapse to the baseline.
func TestFaultSweepGreenWebBeatsPerfUnderThermalCap(t *testing.T) {
	app, _ := apps.ByName("MSN")
	spec := thermalOnlySpec()

	perf, err := ExecuteCell(context.Background(), Cell{App: app, Kind: Perf, Full: true, Faults: spec})
	if err != nil {
		t.Fatalf("Perf: %v", err)
	}
	green, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebI, Full: true, Faults: spec})
	if err != nil {
		t.Fatalf("GreenWeb-I: %v", err)
	}

	// Perf pins the peak, so the cap must have engaged for it.
	if perf.ThermalTrips == 0 {
		t.Fatalf("Perf never tripped the thermal governor: %+v", perf)
	}
	if green.Energy >= perf.Energy {
		t.Fatalf("GreenWeb-I %.3f J not below Perf %.3f J under a thermal cap",
			float64(green.Energy), float64(perf.Energy))
	}
	// Attribution must still balance on a faulted device (Execute enforces
	// ledger conservation internally; re-assert the split here).
	for _, r := range []*Run{perf, green} {
		if diff := r.TotalEnergy - (r.FrameEnergy + r.IdleEnergy); diff > ledger.ConservationTolerance || diff < -ledger.ConservationTolerance {
			t.Fatalf("%s: frame %.9f + idle %.9f != total %.9f", r.Kind,
				float64(r.FrameEnergy), float64(r.IdleEnergy), float64(r.TotalEnergy))
		}
	}
}

// TestFaultedRunDeterminism: one spec seed, two executions, identical
// measurements and identical fault timelines.
func TestFaultedRunDeterminism(t *testing.T) {
	app, _ := apps.ByName("Goo.ne.jp")
	spec := faults.Default(7)
	a, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebI, Full: true, Faults: spec})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebI, Full: true, Faults: spec})
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy != b.Energy || a.TotalEnergy != b.TotalEnergy || a.Frames != b.Frames {
		t.Fatalf("faulted runs diverged: %.9f/%d vs %.9f/%d",
			float64(a.Energy), a.Frames, float64(b.Energy), b.Frames)
	}
	if a.ThermalTrips != b.ThermalTrips || a.DVFSDenied != b.DVFSDenied ||
		a.DVFSDelayed != b.DVFSDelayed || a.DAQDropped != b.DAQDropped {
		t.Fatalf("fault timelines diverged: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.ThermalTrips, a.DVFSDenied, a.DVFSDelayed, a.DAQDropped,
			b.ThermalTrips, b.DVFSDenied, b.DVFSDelayed, b.DAQDropped)
	}
	if a.MeteredEnergy != b.MeteredEnergy || a.DAQSamples != b.DAQSamples {
		t.Fatalf("DAQ integrals diverged: %.9f/%d vs %.9f/%d",
			float64(a.MeteredEnergy), a.DAQSamples, float64(b.MeteredEnergy), b.DAQSamples)
	}
	// Dropout makes the metered integral a strict undercount.
	if a.DAQDropped == 0 {
		t.Fatal("default spec dropped no DAQ samples over a full trace")
	}
	if a.MeteredEnergy >= a.TotalEnergy {
		t.Fatalf("lossy DAQ integral %.9f J not below analytic %.9f J",
			float64(a.MeteredEnergy), float64(a.TotalEnergy))
	}
}

// TestFaultSpecSeedChangesTimeline: different seeds, different fault
// patterns (the DVFS decision streams must not collapse).
func TestFaultSpecSeedChangesTimeline(t *testing.T) {
	app, _ := apps.ByName("Goo.ne.jp")
	a, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebI, Full: true, Faults: faults.Default(1)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebI, Full: true, Faults: faults.Default(2)})
	if err != nil {
		t.Fatal(err)
	}
	if a.DVFSDenied == b.DVFSDenied && a.DVFSDelayed == b.DVFSDelayed &&
		a.DAQDropped == b.DAQDropped && a.Energy == b.Energy {
		t.Fatalf("distinct fault seeds produced identical timelines: %+v", a)
	}
}

// TestNilSpecMatchesUnfaultedRun: the faulted path with no spec must be
// byte-identical to the plain path — the fault layer is pay-for-what-you-use.
func TestNilSpecMatchesUnfaultedRun(t *testing.T) {
	app, _ := apps.ByName("Todo")
	plain, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebU, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebU, Full: true, Faults: nil})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Energy != faulted.Energy || plain.TotalEnergy != faulted.TotalEnergy ||
		plain.Frames != faulted.Frames || plain.ViolationI != faulted.ViolationI {
		t.Fatalf("nil-spec run diverged from plain run: %+v vs %+v", plain, faulted)
	}
	if faulted.ThermalTrips != 0 || faulted.DVFSDenied != 0 || faulted.DAQSamples != 0 {
		t.Fatalf("nil spec produced fault counters: %+v", faulted)
	}
}

// TestFaultStormAbortsRun: a storm threshold of 1 denial fails the run with
// ErrStorm — the deterministic failing job the fleet retry tests rely on.
func TestFaultStormAbortsRun(t *testing.T) {
	app, _ := apps.ByName("Todo")
	spec := &faults.Spec{
		Seed:       3,
		DVFS:       &faults.DVFSSpec{DenyProb: 1},
		StormAbort: 1,
	}
	_, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebI, Full: true, Faults: spec})
	if !errors.Is(err, faults.ErrStorm) {
		t.Fatalf("err = %v, want ErrStorm", err)
	}
	// Below the threshold the same pattern completes.
	spec.StormAbort = 1 << 30
	if _, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebI, Full: true, Faults: spec}); err != nil {
		t.Fatalf("sub-threshold run failed: %v", err)
	}
}

// TestFaultedRunInvalidSpecRejected: malformed specs fail before the device
// is even built.
func TestFaultedRunInvalidSpecRejected(t *testing.T) {
	app, _ := apps.ByName("Todo")
	spec := &faults.Spec{DVFS: &faults.DVFSSpec{DenyProb: 2}}
	if _, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebI, Full: true, Faults: spec}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
