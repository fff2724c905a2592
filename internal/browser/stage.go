package browser

import (
	"fmt"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Pipeline-parallel frame production. The serial renderer models a frame as
// one cascade — style, layout, paint as consecutive main-thread tasks. The
// staged renderer restructures that cascade into an explicit stage graph:
//
//	script (begin-frame) ──▶ style ──▶ layout ──▶ paint ──▶ composite
//
// with dependency edges between stages (a phase barrier: layout consumes the
// whole computed-style tree, paint the whole box tree) and, inside each
// stage, the per-node work split into shards that run concurrently on
// dedicated stage threads — separate simulated cores advancing in virtual
// time. Frame latency becomes the critical path through the graph: the sum
// over stages of the largest shard, not the sum of all work. Everything is
// deterministic because the "parallelism" is discrete-event simulation on
// one goroutine: shard completions are sim events with FIFO tie-breaking,
// and the phase barrier makes stage windows disjoint, so per-stage ledger
// spans nest exactly inside the frame span and the 1e-9 J conservation
// invariant is untouched.
//
// Serial mode (stage workers ≤ 1) does not build stage threads at all —
// thread count feeds the idle-power model, so the serial engine is
// byte-identical to the pre-staging engine, the repo's exact-parity
// contract.

// RenderStage identifies one stage of the frame-production graph.
type RenderStage int

// The staged phases of frame production, in dependency order.
const (
	StageStyle RenderStage = iota
	StageLayout
	StagePaint
	// NumRenderStages is the number of staged phases.
	NumRenderStages = 3
)

func (s RenderStage) String() string {
	switch s {
	case StageStyle:
		return "style"
	case StageLayout:
		return "layout"
	case StagePaint:
		return "paint"
	default:
		return fmt.Sprintf("RenderStage(%d)", int(s))
	}
}

// StageGovernor is the optional per-stage scheduling hook. A Governor that
// also implements it is notified at the start of every staged render phase,
// before the phase's shards are submitted, and may change the execution
// configuration — giving the runtime a per-stage config dimension (the
// frequency-switch and migration penalties of mid-frame changes apply
// exactly as on hardware). The base Governor interface stays frozen; serial
// frame production never calls this.
type StageGovernor interface {
	OnRenderStage(seq int, stage RenderStage)
}

// StageTiming records one staged phase of a frame for attribution and the
// per-stage performance model.
type StageTiming struct {
	Stage RenderStage
	// Start/End bound the phase window in virtual time.
	Start, End sim.Time
	// Config is the execution configuration at phase start (after the
	// governor's OnRenderStage hook ran).
	Config acmp.Config
	// TotalCycles is the phase's whole big-core cycle cost (what the serial
	// cascade would pay); CritCycles is the largest single shard — the
	// phase's contribution to the frame's critical path.
	TotalCycles, CritCycles int64
}

// Duration reports the phase window length.
func (st StageTiming) Duration() sim.Duration { return st.End.Sub(st.Start) }

// MaxStageWorkers bounds the stage-worker count: shards beyond the per-node
// work's parallelism only add idle-core power, and the flag surface should
// reject typos, not allocate a thousand simulated cores.
const MaxStageWorkers = 16

// DefaultStageWorkers reports 0: an engine is serial unless its run sets a
// stage-worker count (harness.WithStageWorkers). Kept for callers that
// predate per-run settings.
func DefaultStageWorkers() int { return 0 }

// Staged render observability. Pure output: simulation code never reads
// these back, so they cannot perturb results.
var (
	obsStageSeconds = obs.Default().HistogramVec("greenweb_browser_stage_seconds",
		"Virtual-time duration of each staged render phase",
		[]float64{0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1}, "stage")
	obsStageHists = [NumRenderStages]*obs.Histogram{
		obsStageSeconds.With(StageStyle.String()),
		obsStageSeconds.With(StageLayout.String()),
		obsStageSeconds.With(StagePaint.String()),
	}
	obsStageSpeedup = obs.Default().Gauge("greenweb_browser_stage_speedup",
		"Serial-sum over critical-path cycles of the last staged frame (modeled pipeline speedup)")
	obsStageOverlap = obs.Default().Counter("greenweb_browser_stage_overlap_total",
		"Staged render phases whose shards ran concurrently on two or more stage cores")
)

// SetStageWorkers configures this engine for staged frame production with n
// stage threads (0 or 1 leaves the engine serial). It must be called before
// LoadPage — stage threads change the core count the idle-power model sees,
// so they may not appear mid-run — and at most once.
func (e *Engine) SetStageWorkers(n int) {
	if n < 0 || n > MaxStageWorkers {
		panic(fmt.Sprintf("browser: stage workers %d out of range [0, %d]", n, MaxStageWorkers))
	}
	if e.loaded {
		panic("browser: SetStageWorkers after LoadPage")
	}
	if len(e.stageThreads) > 0 {
		panic("browser: stage workers already configured")
	}
	if n < 2 {
		return
	}
	for i := 0; i < n; i++ {
		e.stageThreads = append(e.stageThreads, e.cpu.NewThread(fmt.Sprintf("render-stage-%d", i)))
	}
}

// StageWorkers reports the engine's stage-thread count (0 = serial).
func (e *Engine) StageWorkers() int { return len(e.stageThreads) }

// stageThreadsIdle reports whether every stage thread is idle (vacuously
// true for a serial engine).
func (e *Engine) stageThreadsIdle() bool {
	for _, t := range e.stageThreads {
		if !t.Idle() {
			return false
		}
	}
	return true
}

// shardCycles splits a phase's parallelizable cycles evenly across the
// stage threads (remainder cycles to the lowest shards, deterministically);
// base is the phase's serial portion (paint's per-frame base cost), carried
// by shard 0.
func shardCycles(base, par int64, workers int) []int64 {
	out := make([]int64, workers)
	q, r := par/int64(workers), par%int64(workers)
	for k := range out {
		out[k] = q
		if int64(k) < r {
			out[k]++
		}
	}
	out[0] += base
	return out
}

// produceFrameStaged is the staged counterpart of produceFrame's dirty path:
// the same dirty-state capture and frame bookkeeping, but style, layout, and
// paint execute as sharded phases on the stage threads with a dependency
// barrier between phases. The renderer main thread is NOT occupied by
// render work meanwhile, so input dispatches overlap frame production in
// virtual time — the second axis of pipeline parallelism.
func (e *Engine) produceFrameStaged(begin sim.Time) {
	msgs := e.msgQueue
	e.msgQueue = nil
	dirtied := e.dirtyProv
	e.dirtyProv = NewProvenance()
	e.dirty = false
	prov := dirtied.Clone()
	for _, m := range msgs {
		prov.add(m.UID)
	}

	e.frameSeq++
	seq := e.frameSeq
	e.gov.OnFrameStart(seq, prov.Clone())
	// Record the configuration the governor chose for this frame (per-stage
	// hooks may vary it within the frame; this is the frame-level decision).
	cfg := e.cpu.Config()

	nodes := int64(e.doc.CountNodes())
	plan := [NumRenderStages]struct{ base, per int64 }{
		StageStyle:  {0, e.cost.StyleCyclesPerNode},
		StageLayout: {0, e.cost.LayoutCyclesPerNode},
		StagePaint:  {e.cost.PaintBaseCycles, e.cost.PaintCyclesPerNode},
	}

	stages := make([]StageTiming, 0, NumRenderStages)
	var mainWork, critWork int64

	finish := func() {
		if critWork > 0 {
			obsStageSpeedup.Set(float64(mainWork) / float64(critWork))
		}
		// Composite runs on the compositor thread, partially on GPU — same
		// as the serial path.
		e.compositorThread.Submit(acmp.Work{
			CyclesBig:    e.cost.CompositeCycles,
			CyclesLittle: int64(float64(e.cost.CompositeCycles) * e.cost.MicroArchRatio),
			Indep:        e.cost.CompositeGPUTime,
		}, func() {
			e.frameComplete(seq, begin, cfg, prov, dirtied, msgs, mainWork, stages)
		})
	}

	var runStage func(s RenderStage)
	runStage = func(s RenderStage) {
		// Per-stage scheduling hook before any shard is submitted: a config
		// change here pays the switch penalty at the phase boundary, where
		// every stage thread is momentarily idle.
		if sg, ok := e.gov.(StageGovernor); ok {
			sg.OnRenderStage(seq, s)
		}
		total := plan[s].base + nodes*plan[s].per
		mainWork += total
		shards := shardCycles(plan[s].base, nodes*plan[s].per, len(e.stageThreads))
		st := StageTiming{
			Stage:       s,
			Start:       e.simu.Now(),
			Config:      e.cpu.Config(),
			TotalCycles: total,
		}
		pending := 0
		for _, c := range shards {
			if c > st.CritCycles {
				st.CritCycles = c
			}
			if c > 0 {
				pending++
			}
		}
		if e.led != nil {
			e.led.BeginStage(seq, st.Stage.String())
		}
		if pending > 1 {
			obsStageOverlap.Inc()
		}
		done := func() {
			pending--
			if pending > 0 {
				return
			}
			st.End = e.simu.Now()
			if e.led != nil {
				e.led.EndStage()
			}
			obsStageHists[st.Stage].Observe(st.End.Sub(st.Start).Seconds())
			stages = append(stages, st)
			critWork += st.CritCycles
			if st.Stage == StagePaint {
				finish()
			} else {
				runStage(st.Stage + 1)
			}
		}
		if pending == 0 {
			// A zero-cost phase (impossible under the default cost model,
			// which charges per node) still closes its span and advances.
			pending = 1
			done()
			return
		}
		// Submit shards in thread order; equal-cost shards complete at the
		// same virtual instant and the simulator's FIFO tie-break keeps the
		// callback order deterministic (the order is immaterial anyway: only
		// the last completion advances the graph).
		for k, c := range shards {
			if c == 0 {
				continue
			}
			e.stageThreads[k].Submit(e.cost.cyclesWork(c), done)
		}
	}
	runStage(StageStyle)
}
