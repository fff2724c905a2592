package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/core"
	"github.com/wattwiseweb/greenweb/internal/css"
	"github.com/wattwiseweb/greenweb/internal/governor"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/html"
	"github.com/wattwiseweb/greenweb/internal/js"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/metrics"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/replay"
	"github.com/wattwiseweb/greenweb/internal/sim"
	"github.com/wattwiseweb/greenweb/internal/webapi"
)

// Probe repetitions: each timed call is repeated and its median kept.
const (
	cellRepeats  = 3  // warm ExecuteCell calls and decomposed replays per cell
	parseRepeats = 15 // parse, compile, clone, cascade and install calls per page
	selectCalls  = 2000
	invalidCalls = 200
)

// probeLayers times each layer's exported functions directly, on the
// workload's own cells and pages, one call at a time.
func probeLayers(cells []harness.Cell) (map[string]float64, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("no cells to probe")
	}
	vals := map[string]float64{}
	var pages []*apps.App
	seen := map[*apps.App]bool{}
	for _, c := range cells {
		if !seen[c.App] {
			seen[c.App] = true
			pages = append(pages, c.App)
		}
	}
	if err := probePages(pages, vals); err != nil {
		return nil, err
	}

	// Every cell sequentially through ExecuteCell, warm; each decomposable
	// cell is also replayed layer by layer, alternating with ExecuteCell so
	// host-speed drift hits both timings alike, and checked against it.
	cellMS := make([]float64, len(cells))
	var layerSum, execSum, loadUS, simMS, finishUS, events, frames, spans float64
	var nRuns, nCells int
	var models []scenarioModel
	for i, c := range cells {
		_, decomposable := governorFor(c.Kind)
		var execTimes, layerTimes []float64
		var cl cellLayers
		for r := 0; r < cellRepeats; r++ {
			t := time.Now()
			run, err := harness.ExecuteCell(context.Background(), c)
			execTimes = append(execTimes, ms(time.Since(t)))
			if err != nil {
				return nil, err
			}
			if !decomposable {
				continue
			}
			if cl, err = replayCell(c); err != nil {
				return nil, err
			}
			layerTimes = append(layerTimes, ms(cl.load+cl.sim+cl.finish))
			if cl.energy != run.Energy || cl.frames != run.Frames {
				return nil, mismatchf("decomposed %s/%s (full=%v): energy %v J, %d frames; ExecuteCell: %v J, %d frames",
					c.App.Name, c.Kind, c.Full, cl.energy, cl.frames, run.Energy, run.Frames)
			}
		}
		cellMS[i] = median(execTimes)
		if !decomposable {
			continue
		}
		nCells++
		layerSum += median(layerTimes)
		execSum += cellMS[i]
		nRuns += cl.runs
		loadUS += us(cl.load)
		simMS += ms(cl.sim)
		finishUS += us(cl.finish)
		events += float64(cl.events)
		frames += float64(cl.producedFrames)
		spans += float64(cl.spans)
		models = append(models, cl.models...)
	}
	vals["harness.cell_ms.p50"] = median(cellMS)
	vals["harness.cell_ms.p99"] = quantile(cellMS, 0.99)
	if nCells == 0 {
		return nil, fmt.Errorf("no decomposable cells")
	}
	vals["cell.execute_ms"] = execSum / float64(nCells)
	// Reported, not gated: both sides are wall times, so a band tight enough
	// to mean something would fail runs on a noisy host. The exact energy
	// and frame equality above is what proves the replay does ExecuteCell's work.
	vals["cell.layer_sum_ratio"] = layerSum / execSum
	n := float64(nRuns)
	vals["browser.load_page_us"] = loadUS / n
	vals["sim.run_ms"] = simMS / n
	vals["sim.events"] = events / n
	vals["sim.ns_per_event"] = simMS * 1e6 / events
	vals["browser.frames"] = frames / n
	vals["ledger.finish_us"] = finishUS / n
	vals["ledger.spans"] = spans / n
	probeSelect(models, vals)
	return vals, nil
}

// probePages times the page-load layers on each page, averaged over pages.
func probePages(pages []*apps.App, vals map[string]float64) error {
	var parse, compile, clone, cascade, install []float64
	sv := sim.New()
	svc := browser.New(sv, acmp.NewCPU(sv, acmp.DefaultPower()), nil) // the Services webapi.Install binds to
	for _, app := range pages {
		src := app.HTML()
		tmpl := html.Parse(src)
		scripts := html.ScriptSources(tmpl)
		var sheets []*css.Stylesheet
		for _, s := range html.StyleSources(tmpl) {
			sheet, _ := css.Parse(s)
			sheets = append(sheets, sheet)
		}
		css.Cascade(tmpl.Clone(), sheets...) // builds each sheet's rule index, as the engine's cached sheets have
		var p, c, cl, ca, in []float64
		for r := 0; r < parseRepeats; r++ {
			t := time.Now()
			html.Parse(src)
			p = append(p, us(time.Since(t)))

			t = time.Now()
			for _, s := range scripts {
				prog, err := js.Parse(s)
				if err != nil {
					return fmt.Errorf("%s: %w", app.Name, err)
				}
				js.Compile(prog)
			}
			c = append(c, us(time.Since(t)))

			t = time.Now()
			doc := tmpl.Clone()
			cl = append(cl, us(time.Since(t)))

			t = time.Now()
			css.Cascade(doc, sheets...)
			ca = append(ca, us(time.Since(t)))

			doc = tmpl.Clone()
			interp := js.NewInterp()
			t = time.Now()
			webapi.Install(interp, doc, svc)
			in = append(in, us(time.Since(t)))
		}
		parse = append(parse, median(p))
		compile = append(compile, median(c))
		clone = append(clone, median(cl))
		cascade = append(cascade, median(ca))
		install = append(install, median(in))
	}
	vals["html.parse_us"] = mean(parse)
	vals["js.compile_us"] = mean(compile)
	vals["dom.clone_us"] = mean(clone)
	vals["css.cascade_us"] = mean(cascade)
	vals["webapi.install_us"] = mean(install)
	return nil
}

// scenarioModel is a trained per-class model with the scenario whose
// deadline it is selected against.
type scenarioModel struct {
	m        *core.Model
	scenario qos.Scenario
}

// probeSelect times Model.Select on the decomposed cells' trained models:
// the steady state (memoized sweep) and after Invalidate (full sweep).
func probeSelect(models []scenarioModel, vals map[string]float64) {
	vals["core.select_ns"], vals["core.select_invalidated_ns"] = 0, 0
	pm := acmp.DefaultPower()
	var steady, invalid []float64
	for _, sm := range models {
		if !sm.m.Ready() {
			continue
		}
		dl := sm.scenario.Deadline(sm.m.Ann.Target)
		safety := core.DefaultOptions(sm.scenario).Safety
		sm.m.Select(dl, pm, safety) // fills the memo the steady state hits
		t := time.Now()
		for i := 0; i < selectCalls; i++ {
			sm.m.Select(dl, pm, safety)
		}
		steady = append(steady, float64(time.Since(t).Nanoseconds())/selectCalls)
		t = time.Now()
		for i := 0; i < invalidCalls; i++ {
			sm.m.Invalidate()
			sm.m.Select(dl, pm, safety)
		}
		invalid = append(invalid, float64(time.Since(t).Nanoseconds())/invalidCalls)
	}
	if len(steady) > 0 {
		vals["core.select_ns"] = median(steady)
		vals["core.select_invalidated_ns"] = median(invalid)
	}
}

// governorFor builds the governor harness installs for kind. Only the
// sweep grids' default kinds are decomposed.
func governorFor(kind harness.Kind) (browser.Governor, bool) {
	switch kind {
	case harness.Perf:
		return governor.NewPerf(), true
	case harness.Interactive:
		return governor.NewInteractive(governor.DefaultInteractiveParams()), true
	case harness.GreenWebI:
		return core.New(core.DefaultOptions(qos.Imperceptible)), true
	case harness.GreenWebU:
		return core.New(core.DefaultOptions(qos.Usable)), true
	}
	return nil, false
}

func scenarioOf(kind harness.Kind) qos.Scenario {
	if kind == harness.GreenWebI {
		return qos.Imperceptible
	}
	return qos.Usable
}

// layerWork is what decomposed runs did, layer by layer, summed over runs.
type layerWork struct {
	load, sim, finish time.Duration
	events            uint64 // simulator events fired
	producedFrames    int    // frames produced, load frame included
	spans             int    // ledger spans
	runs              int
}

func (w *layerWork) add(o layerWork) {
	w.load += o.load
	w.sim += o.sim
	w.finish += o.finish
	w.events += o.events
	w.producedFrames += o.producedFrames
	w.spans += o.spans
	w.runs += o.runs
}

// measured is what harness reports for a run: interaction energy and frames.
type measured struct {
	energy acmp.Joules
	frames int
}

// cellLayers is one cell's decomposed execution: its runs' layer work, and
// the measured result of the run ExecuteCell would report.
type cellLayers struct {
	layerWork
	measured
	models []scenarioModel
}

// replayCell replays a cell the way harness.ExecuteCell does: one run for a
// full cell; for a micro cell harness.MicroRepeats runs whose trained
// models carry over, reporting the median-energy run.
func replayCell(c harness.Cell) (cellLayers, error) {
	trace, n := c.App.Micro, harness.MicroRepeats
	if c.Full {
		trace, n = c.App.Full, 1
	}
	var out cellLayers
	var models map[string]*core.Model
	var runs []measured
	for i := 0; i < n; i++ {
		r, err := replayRun(c.App, c.Kind, trace, models)
		if err != nil {
			return out, err
		}
		if r.models != nil {
			models = r.models
		}
		out.add(r.layerWork)
		runs = append(runs, r.measured)
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].energy < runs[j].energy })
	out.measured = runs[len(runs)/2]
	for _, m := range models {
		out.models = append(out.models, scenarioModel{m, scenarioOf(c.Kind)})
	}
	return out, nil
}

// runLayers is one decomposed run.
type runLayers struct {
	layerWork
	measured
	models map[string]*core.Model
}

// replayRun makes the public calls harness makes for one run, in the same
// order, timing three layers: page load (engine, ledger and governor set-up
// through LoadPage), the simulation (load settle, trace replay, final
// settle), and the ledger close (Finish, Check, Spans).
func replayRun(app *apps.App, kind harness.Kind, trace *replay.Trace, seed map[string]*core.Model) (runLayers, error) {
	out := runLayers{layerWork: layerWork{runs: 1}}
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())

	t := time.Now()
	e := browser.New(s, cpu, nil)
	if n := browser.DefaultStageWorkers(); n > 0 {
		e.SetStageWorkers(n)
	}
	led := ledger.New(cpu)
	e.SetLedger(led)
	if obs.Enabled() {
		e.SetTracer(obs.NewRecorder(0))
	}
	gov, _ := governorFor(kind)
	rt, _ := gov.(*core.Runtime)
	if rt != nil && seed != nil {
		rt.ImportModels(seed)
	}
	e.SetGovernor(gov)
	if _, err := e.LoadPage(app.HTML()); err != nil {
		return out, err
	}
	metrics.NewCollector(e, qos.Imperceptible)
	metrics.NewCollector(e, qos.Usable)
	out.load = time.Since(t)

	t = time.Now()
	settle(s, e)
	loadOnly := trace == nil || trace.Events() == 0
	e0 := cpu.Energy()
	f0 := len(e.Results())
	t0 := s.Now().Add(100 * sim.Millisecond)
	if !loadOnly {
		trace.Replay(e, t0)
		runUntil(s, t0.Add(trace.Duration()))
		settle(s, e)
	}
	if st, ok := gov.(interface{ Stop() }); ok {
		st.Stop()
	}
	out.sim = time.Since(t)
	if loadOnly {
		out.energy, out.frames = cpu.Energy(), len(e.Results())
	} else {
		out.energy, out.frames = cpu.Energy()-e0, len(e.Results())-f0
	}

	t = time.Now()
	led.Finish()
	if err := led.Check(); err != nil {
		return out, err
	}
	out.spans = len(led.Spans())
	out.finish = time.Since(t)

	if errs := e.ScriptErrors(); len(errs) > 0 {
		return out, errs[0]
	}
	out.events = s.Fired()
	out.producedFrames = len(e.Results())
	if rt != nil {
		out.models = rt.ExportModels()
	}
	return out, nil
}

// settle and runUntil advance the simulation in harness's chunks: the load
// settle polls quiescence every 20 ms of virtual time (where it stops fixes
// when the trace starts), the replay runs in 100 ms chunks.
func settle(s *sim.Simulator, e *browser.Engine) {
	deadline := s.Now().Add(60 * sim.Second)
	for s.Now() < deadline {
		s.RunUntil(s.Now().Add(20 * sim.Millisecond))
		if e.Quiescent() && !e.CPU().Busy() {
			return
		}
	}
}

func runUntil(s *sim.Simulator, deadline sim.Time) {
	for s.Now() < deadline {
		next := s.Now().Add(100 * sim.Millisecond)
		if next > deadline {
			next = deadline
		}
		s.RunUntil(next)
	}
}
