package harness

import (
	"context"
	"fmt"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/autogreen"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/governor"
	"github.com/wattwiseweb/greenweb/internal/metrics"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// ---- Table 1 ----

// Table1Row is one interaction category (defaults from internal/qos).
type Table1Row = qos.Category

// Table1 returns the paper's interaction-category taxonomy.
func Table1() []Table1Row { return qos.Table1() }

// ---- Table 2 ----

// Table2Row documents one GreenWeb API rule form.
type Table2Row struct {
	Syntax    string
	Semantics string
	Example   string
}

// Table2 returns the GreenWeb API specification (paper Table 2), with a
// runnable example per rule form (each example parses in internal/css).
func Table2() []Table2Row {
	return []Table2Row{
		{
			Syntax:    "E:QoS { onevent-qos: continuous }",
			Semantics: "As soon as onevent is triggered on DOM element E, continuously optimize for frame latency; Table 1 continuous defaults apply to all frames.",
			Example:   "div#ex:QoS { ontouchstart-qos: continuous; }",
		},
		{
			Syntax:    "E:QoS { onevent-qos: single, short|long }",
			Semantics: "Optimize for the latency of the single frame caused by onevent; users expect a short (long) response period, selecting the Table 1 single defaults.",
			Example:   "div#btn:QoS { onclick-qos: single, short; }",
		},
		{
			Syntax:    "E:QoS { onevent-qos: continuous|single, ti-value, tu-value }",
			Semantics: "Explicitly specify TI and TU in integer milliseconds; both values must appear or be omitted together.",
			Example:   "div#cv:QoS { ontouchmove-qos: continuous, 20, 100; }",
		},
	}
}

// ---- Table 3 ----

// Table3Row describes one evaluated application.
type Table3Row struct {
	App          string
	Interaction  apps.Interaction
	QoSType      qos.Type
	QoSTarget    qos.Target
	FullSeconds  float64
	FullEvents   int
	AnnotatedPct float64
}

// Table3 computes the application inventory: interaction category, trace
// duration, event count, and measured annotation coverage.
func Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, a := range apps.All() {
		cov, err := annotationCoverage(a)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			App:          a.Name,
			Interaction:  a.Interaction,
			QoSType:      a.QoSType,
			QoSTarget:    a.QoSTarget,
			FullSeconds:  a.Full.Duration().Seconds(),
			FullEvents:   a.Full.Events(),
			AnnotatedPct: cov * 100,
		})
	}
	return rows, nil
}

func annotationCoverage(a *apps.App) (float64, error) {
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := browser.New(s, cpu, nil)
	e.SetGovernor(governor.NewPerf())
	if _, err := e.LoadPage(a.HTML()); err != nil {
		return 0, err
	}
	if err := settle(context.Background(), s, e, 60*sim.Second); err != nil {
		return 0, err
	}
	if a.Full.Events() == 0 {
		return 1, nil
	}
	annotated := 0
	for _, step := range a.Full.Steps {
		n := e.Doc().GetElementByID(step.Target)
		if n == nil {
			continue
		}
		if _, ok := e.Annotations().Lookup(n, step.Event); ok {
			annotated++
		}
	}
	return float64(annotated) / float64(a.Full.Events()), nil
}

// ---- Fig. 9: microbenchmarks ----

// Fig9Row is one application's microbenchmark outcome.
type Fig9Row struct {
	App string
	// Energy as % of Perf (Fig. 9a; lower is better).
	EnergyPctI float64
	EnergyPctU float64
	// Extra QoS violations on top of Perf, percentage points (Fig. 9b).
	ExtraViolI float64
	ExtraViolU float64
}

// Fig9 runs the microbenchmarks for Perf, GreenWeb-I and GreenWeb-U and
// reports Fig. 9a (energy) and Fig. 9b (violations) per application.
func (s *Suite) Fig9() ([]Fig9Row, error) {
	if err := s.prefetch(cellsFor(false, Perf, GreenWebI, GreenWebU)); err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for _, a := range apps.All() {
		perf, err := s.Micro(a, Perf)
		if err != nil {
			return nil, err
		}
		gwI, err := s.Micro(a, GreenWebI)
		if err != nil {
			return nil, err
		}
		gwU, err := s.Micro(a, GreenWebU)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{
			App:        a.Name,
			EnergyPctI: metrics.NormalizedPct(gwI.Energy, perf.Energy),
			EnergyPctU: metrics.NormalizedPct(gwU.Energy, perf.Energy),
			ExtraViolI: gwI.ViolationI - perf.ViolationI,
			ExtraViolU: gwU.ViolationU - perf.ViolationU,
		})
	}
	return rows, nil
}

// Fig9Averages summarizes Fig. 9 (the paper: 31.9% and 78.0% average
// savings; 1.3 and 1.2 points extra violations).
func Fig9Averages(rows []Fig9Row) (saveI, saveU, violI, violU float64) {
	var eI, eU, vI, vU []float64
	for _, r := range rows {
		eI = append(eI, r.EnergyPctI)
		eU = append(eU, r.EnergyPctU)
		vI = append(vI, r.ExtraViolI)
		vU = append(vU, r.ExtraViolU)
	}
	return 100 - metrics.Mean(eI), 100 - metrics.Mean(eU), metrics.Mean(vI), metrics.Mean(vU)
}

// ---- Fig. 10: full interactions ----

// Fig10Row is one application's full-interaction outcome.
type Fig10Row struct {
	App string
	// Energy as % of Perf (Fig. 10a).
	InteractivePct float64
	GreenWebIPct   float64
	GreenWebUPct   float64
	// Extra violations over Perf under the imperceptible scenario
	// (Fig. 10b) and usable scenario (Fig. 10c).
	InteractiveViolI float64
	GreenWebViolI    float64
	InteractiveViolU float64
	GreenWebViolU    float64
}

// Fig10 runs the full interactions under Perf, Interactive, GreenWeb-I and
// GreenWeb-U and reports Fig. 10a/b/c per application.
func (s *Suite) Fig10() ([]Fig10Row, error) {
	if err := s.prefetch(cellsFor(true, Perf, Interactive, GreenWebI, GreenWebU)); err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for _, a := range apps.All() {
		perf, err := s.Full(a, Perf)
		if err != nil {
			return nil, err
		}
		inter, err := s.Full(a, Interactive)
		if err != nil {
			return nil, err
		}
		gwI, err := s.Full(a, GreenWebI)
		if err != nil {
			return nil, err
		}
		gwU, err := s.Full(a, GreenWebU)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{
			App:              a.Name,
			InteractivePct:   metrics.NormalizedPct(inter.Energy, perf.Energy),
			GreenWebIPct:     metrics.NormalizedPct(gwI.Energy, perf.Energy),
			GreenWebUPct:     metrics.NormalizedPct(gwU.Energy, perf.Energy),
			InteractiveViolI: inter.ViolationI - perf.ViolationI,
			GreenWebViolI:    gwI.ViolationI - perf.ViolationI,
			InteractiveViolU: inter.ViolationU - perf.ViolationU,
			GreenWebViolU:    gwU.ViolationU - perf.ViolationU,
		})
	}
	return rows, nil
}

// Fig10Averages summarizes Fig. 10: average GreenWeb savings relative to
// Interactive (paper: 29.2% I, 66.0% U) and extra violations over Perf
// (paper: 0.8 and 0.6 points).
func Fig10Averages(rows []Fig10Row) (saveIvsInteractive, saveUvsInteractive, violI, violU float64) {
	var sI, sU, vI, vU []float64
	for _, r := range rows {
		if r.InteractivePct > 0 {
			sI = append(sI, 100*(1-r.GreenWebIPct/r.InteractivePct))
			sU = append(sU, 100*(1-r.GreenWebUPct/r.InteractivePct))
		}
		vI = append(vI, r.GreenWebViolI)
		vU = append(vU, r.GreenWebViolU)
	}
	return metrics.Mean(sI), metrics.Mean(sU), metrics.Mean(vI), metrics.Mean(vU)
}

// ---- Fig. 11: configuration distribution ----

// Fig11Row is one application's time distribution over configurations.
type Fig11Row struct {
	App    string
	Shares []metrics.ConfigShare
	Little float64 // cluster share summary
	Big    float64
}

// Fig11 reports the architecture-configuration residency during the full
// interaction for one GreenWeb scenario (Fig. 11a: GreenWeb-I, Fig. 11b:
// GreenWeb-U).
func (s *Suite) Fig11(kind Kind) ([]Fig11Row, error) {
	if err := s.prefetch(cellsFor(true, kind)); err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for _, a := range apps.All() {
		run, err := s.Full(a, kind)
		if err != nil {
			return nil, err
		}
		dist := metrics.Distribution(run.Residency)
		little, big := metrics.ClusterShares(dist)
		rows = append(rows, Fig11Row{App: a.Name, Shares: dist, Little: little, Big: big})
	}
	return rows, nil
}

// ---- Fig. 12: switching frequency ----

// Fig12Row is one application's configuration-switching rate, decomposed
// into frequency switches and cluster migrations (percent per frame).
type Fig12Row struct {
	App   string
	FreqI float64
	MigI  float64
	FreqU float64
	MigU  float64
}

// Fig12 reports switching rates for GreenWeb-I and GreenWeb-U.
func (s *Suite) Fig12() ([]Fig12Row, error) {
	if err := s.prefetch(cellsFor(true, GreenWebI, GreenWebU)); err != nil {
		return nil, err
	}
	var rows []Fig12Row
	for _, a := range apps.All() {
		gwI, err := s.Full(a, GreenWebI)
		if err != nil {
			return nil, err
		}
		gwU, err := s.Full(a, GreenWebU)
		if err != nil {
			return nil, err
		}
		fI, mI := metrics.SwitchRate(gwI.Switches, gwI.Frames)
		fU, mU := metrics.SwitchRate(gwU.Switches, gwU.Frames)
		rows = append(rows, Fig12Row{App: a.Name, FreqI: fI, MigI: mI, FreqU: fU, MigU: mU})
	}
	return rows, nil
}

// ---- Ablations (paper Sec. 8/10 extensions) ----

// AblationRow compares the full ACMP runtime to single-cluster variants.
type AblationRow struct {
	App            string
	FullPct        float64 // GreenWeb-U energy, % of Perf
	BigOnlyPct     float64
	LittleOnlyPct  float64
	LittleOnlyViol float64 // extra I-scenario violations of little-only
}

// AblationSingleCluster quantifies what the ACMP heterogeneity buys: the
// usable-mode runtime restricted to one cluster (the paper's "runtime
// leveraging only a single big (or little) core capable of DVFS").
func (s *Suite) AblationSingleCluster() ([]AblationRow, error) {
	if err := s.prefetch(cellsFor(true, Perf, GreenWebU, GreenWebUBigOnly, GreenWebULittleOnly, GreenWebILittleOnly)); err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, a := range apps.All() {
		perf, err := s.Full(a, Perf)
		if err != nil {
			return nil, err
		}
		full, err := s.Full(a, GreenWebU)
		if err != nil {
			return nil, err
		}
		bigOnly, err := s.Full(a, GreenWebUBigOnly)
		if err != nil {
			return nil, err
		}
		litOnly, err := s.Full(a, GreenWebULittleOnly)
		if err != nil {
			return nil, err
		}
		litOnlyI, err := s.Full(a, GreenWebILittleOnly)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			App:            a.Name,
			FullPct:        metrics.NormalizedPct(full.Energy, perf.Energy),
			BigOnlyPct:     metrics.NormalizedPct(bigOnly.Energy, perf.Energy),
			LittleOnlyPct:  metrics.NormalizedPct(litOnly.Energy, perf.Energy),
			LittleOnlyViol: litOnlyI.ViolationI - perf.ViolationI,
		})
	}
	return rows, nil
}

// PredictorRow compares the cold (reactive, online-profiling) runtime with
// a profiling-guided variant whose per-event models were trained offline —
// the improvement Sec. 7.3 suggests after Lo et al.
type PredictorRow struct {
	App string
	// Extra I-scenario violations over Perf.
	ColdViol    float64
	TrainedViol float64
	// Total configuration switches during the interaction.
	ColdSwitches    int
	TrainedSwitches int
	// Energy as % of Perf.
	ColdPct    float64
	TrainedPct float64
}

// AblationPredictor runs every full interaction twice under GreenWeb-I:
// once cold (profiling online, as the paper's runtime does) and once seeded
// with the models the first run trained (the offline-profiling-guided
// variant). The trained variant should shed the profiling-run violations
// and some switching.
func (s *Suite) AblationPredictor() ([]PredictorRow, error) {
	if err := s.prefetch(cellsFor(true, Perf)); err != nil {
		return nil, err
	}
	var rows []PredictorRow
	for _, a := range apps.All() {
		perf, err := s.Full(a, Perf)
		if err != nil {
			return nil, err
		}
		cold, trainedModels, err := executeSeeded(s.ctx, a, GreenWebI, a.Full, nil, nil)
		if err != nil {
			return nil, err
		}
		trained, _, err := executeSeeded(s.ctx, a, GreenWebI, a.Full, trainedModels, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PredictorRow{
			App:             a.Name,
			ColdViol:        cold.ViolationI - perf.ViolationI,
			TrainedViol:     trained.ViolationI - perf.ViolationI,
			ColdSwitches:    cold.Switches.Total(),
			TrainedSwitches: trained.Switches.Total(),
			ColdPct:         metrics.NormalizedPct(cold.Energy, perf.Energy),
			TrainedPct:      metrics.NormalizedPct(trained.Energy, perf.Energy),
		})
	}
	return rows, nil
}

// EBSRow compares the annotation-free event-based scheduler with GreenWeb
// under the imperceptible scenario (paper Sec. 9: EBS guesses tolerance
// from measured latency; annotations carry the inherent constraint).
type EBSRow struct {
	App string
	// Extra I-scenario violations over Perf.
	EBSViol      float64
	GreenWebViol float64
	// Energy as % of Perf.
	EBSPct      float64
	GreenWebPct float64
}

// ComparisonEBS runs the full interactions under EBS and reports them
// against GreenWeb-I.
func (s *Suite) ComparisonEBS() ([]EBSRow, error) {
	if err := s.prefetch(cellsFor(true, Perf, EBSKind, GreenWebI)); err != nil {
		return nil, err
	}
	var rows []EBSRow
	for _, a := range apps.All() {
		perf, err := s.Full(a, Perf)
		if err != nil {
			return nil, err
		}
		ebs, err := s.Full(a, EBSKind)
		if err != nil {
			return nil, err
		}
		gw, err := s.Full(a, GreenWebI)
		if err != nil {
			return nil, err
		}
		rows = append(rows, EBSRow{
			App:          a.Name,
			EBSViol:      ebs.ViolationI - perf.ViolationI,
			GreenWebViol: gw.ViolationI - perf.ViolationI,
			EBSPct:       metrics.NormalizedPct(ebs.Energy, perf.Energy),
			GreenWebPct:  metrics.NormalizedPct(gw.Energy, perf.Energy),
		})
	}
	return rows, nil
}

// AutoGreenRow compares an application running with its manual annotations
// against the same application annotated by AUTOGREEN (paper Sec. 5/7.3:
// automatic annotation is conservative — single events always get the
// short target — trading some energy for guaranteed QoS).
type AutoGreenRow struct {
	App string
	// Energy as % of Perf under GreenWeb-I.
	ManualPct float64
	AutoPct   float64
	// Extra I-scenario violations over Perf.
	ManualViol float64
	AutoViol   float64
	// Findings generated by AUTOGREEN.
	Findings int
}

// ComparisonAutoGreen annotates each application's unannotated source with
// AUTOGREEN and measures it against the manual annotations.
func (s *Suite) ComparisonAutoGreen() ([]AutoGreenRow, error) {
	if err := s.prefetch(cellsFor(true, Perf, GreenWebI)); err != nil {
		return nil, err
	}
	var rows []AutoGreenRow
	for _, a := range apps.All() {
		perf, err := s.Full(a, Perf)
		if err != nil {
			return nil, err
		}
		manual, err := s.Full(a, GreenWebI)
		if err != nil {
			return nil, err
		}
		annotated, report, err := autogreen.Annotate(a.BaseHTML)
		if err != nil {
			return nil, err
		}
		auto, _, err := executeHTML(s.ctx, a, annotated, GreenWebI, a.Full, nil, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AutoGreenRow{
			App:        a.Name,
			ManualPct:  metrics.NormalizedPct(manual.Energy, perf.Energy),
			AutoPct:    metrics.NormalizedPct(auto.Energy, perf.Energy),
			ManualViol: manual.ViolationI - perf.ViolationI,
			AutoViol:   auto.ViolationI - perf.ViolationI,
			Findings:   len(report.Findings),
		})
	}
	return rows, nil
}

// String renders a run compactly for logs.
func (r *Run) String() string {
	return fmt.Sprintf("%s/%s: %.3f J, %d frames, violI=%.2f%% violU=%.2f%%",
		r.App.Name, r.Kind, float64(r.Energy), r.Frames, r.ViolationI, r.ViolationU)
}
