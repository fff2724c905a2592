// Command perfbench is the repository's benchmark. It drives one workload
// in-process, checks every output against golden bytes generated from the
// seed code, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload report --seed 1 --seconds 5 --trace 0
//
// Workloads (see workloads below for why each exists):
//
//   - report: the full paper report (harness.RenderAll) on a fleet.Pool
//     with nproc slots, cold asset cache per report, compared byte-for-byte
//     with golden/report.txt.
//   - sweep-micro: nproc closed-loop clients posting micro-phase sweeps
//     (2 apps × 2 kinds) over HTTP to the greensrv stack (fleet.Server,
//     Manager, a 2-node local shard.Cluster, a WAL store); every NDJSON row
//     is compared with golden/micro.ndjson, and after the run every
//     persisted sweep is replayed from the reopened store and compared with
//     the live stream.
//   - sweep-full-remote: nproc closed-loop clients posting full-phase sweeps
//     (12 apps × 2 kinds) over HTTP onto two in-process shard.Workers
//     reached through shard.RemoteNode over loopback TCP; rows are compared
//     with golden/full.ndjson.
//
// A run builds the workload's stack several times and measures each build
// for an equal share of --seconds (see workload). With --trace 0 the result
// carries the end-to-end metrics, measured with the benchmark's tracing off:
// throughput and CPU per job are medians over windows of about a second;
// rss_peak_mb is read after a fixed number of operations, before the first
// timed window. With --trace 1 each build has its public seams wrapped
// (harness.Prefetcher, fleet.Runner, shard.Node, shard.RemoteOptions.Dial)
// and alternates windows with recording off and on; then the run probes each
// layer's exported functions directly and reports the per-layer metrics. A
// layer the workload does not cross reads 0.
//
// Exit status: 0 with a result line; 1 with a result line whose "correct" is
// false and whose metrics are empty when any output differs from its golden
// bytes; 2 without a result line on a usage or set-up error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the --trace 0 metric set. An "op" is what a user waits for:
// one full report, or one sweep from sending the POST to receiving its last
// NDJSON row. A "job" is one executed cell. The op tail is reported, not
// bounded: a run holds about thirty reports, so no report percentile above
// the median has ten samples beyond it, and the remote sweeps' p99 moves with
// where GC cycles over the retained sweeps fall. The samples line of a
// --trace 0 run and op.p99_ms of a --trace 1 run carry it with its count.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"cpu_ms_per_job", "ms"},
	{"rss_peak_mb", "MiB"},
}

// perLayer is the --trace 1 metric set.
var perLayer = []metricDef{
	{"op.samples", "count"},
	{"op.p99_ms", "ms"},
	{"trace_overhead_frac", "frac"},
	{"harness.prefetch_frac", "frac"},
	{"harness.cell_ms.p50", "ms"},
	{"harness.cell_ms.p99", "ms"},
	{"cell.execute_ms", "ms"},
	{"cell.layer_sum_ratio", "ratio"},
	{"html.parse_us", "us"},
	{"js.compile_us", "us"},
	{"dom.clone_us", "us"},
	{"css.cascade_us", "us"},
	{"webapi.install_us", "us"},
	{"browser.load_page_us", "us"},
	{"sim.run_ms", "ms"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"browser.frames", "count"},
	{"core.select_ns", "ns"},
	{"core.select_invalidated_ns", "ns"},
	{"ledger.finish_us", "us"},
	{"ledger.spans", "count"},
	{"runtime.allocs_per_job", "count"},
	{"runtime.alloc_bytes_per_job", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"fleet.queue_wait_ms.p50", "ms"},
	{"fleet.queue_wait_ms.p99", "ms"},
	{"fleet.run_ms.p50", "ms"},
	{"fleet.run_ms.p99", "ms"},
	{"fleet.busy_frac", "frac"},
	{"fleet.submit_ms.p50", "ms"},
	{"fleet.submit_ms.p99", "ms"},
	{"fleet.first_row_ms.p50", "ms"},
	{"shard.node_run_ms.p50", "ms"},
	{"shard.node_run_ms.p99", "ms"},
	{"shard.wire_bytes_per_job", "B"},
	{"shard.wire_overhead_ms.p50", "ms"},
	{"store.append_row_us", "us"},
	{"store.end_ms", "ms"},
	{"store.wal_bytes_per_job", "B"},
	{"store.open_ms", "ms"},
	{"store.replay_ms", "ms"},
}

// watchdog bounds a run: a wedged stack exits non-zero without a result
// instead of outliving the benchmark's time limit.
const watchdog = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run executes one benchmark invocation, writing its stdout lines to out,
// and returns the exit status.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: report, sweep-micro or sweep-full-remote")
	seed := fs.Int64("seed", 1, "workload seed (orders the sweep grids)")
	seconds := fs.Float64("seconds", 5, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	golden := fs.String("golden", filepath.Join("perfbench", "golden"), "golden output directory")
	work := fs.String("workdir", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for WAL stores")
	writeGolden := fs.Bool("write-golden", false, "regenerate the golden files from the current code and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeGolden {
		if err := regenerateGolden(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	w, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds <= 0:
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog expired")
		os.Exit(3)
	})
	defer timer.Stop()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.RemoveAll(*work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(*work)
	e := &env{nproc: nproc, seed: *seed, golden: *golden, work: *work}
	header(out, e, w.name, *traced)

	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(e, w, d)
	} else {
		res, err = runEndToEnd(out, e, w, d)
	}
	var mismatch *mismatchError
	switch {
	case errors.As(err, &mismatch):
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct, res.Metrics = false, map[string]metricValue{}
		if res.Failed == 0 {
			res.Failed = 1 // a post-run check (store replay, cell decomposition) failed
		}
		printResult(out, res)
		return 1
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, m.Value)
			return 2
		}
	}
	res.Correct = true
	printResult(out, res)
	return 0
}

// env is what every workload shares: the host's shape, the seed, and where
// the references and scratch files live.
type env struct {
	nproc  int
	seed   int64
	golden string
	work   string
}

// header prints the run header as the first stdout line, so numbers from
// different hosts are not compared blindly.
func header(out io.Writer, e *env, workload string, traced int) {
	h := map[string]any{
		"workload":   workload,
		"seed":       e.seed,
		"trace":      traced,
		"nproc":      e.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"store_fs":   fsType(e.work),
	}
	b, _ := json.Marshal(map[string]any{"run_header": h})
	fmt.Fprintln(out, string(b))
}

func printResult(out io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Fprintln(out, string(b))
}

// mismatchError reports output that differs from its golden bytes, or a
// failed operation: the run is incorrect and reports no metrics.
type mismatchError struct{ msg string }

func (m *mismatchError) Error() string { return m.msg }

func mismatchf(format string, args ...any) error {
	return &mismatchError{fmt.Sprintf(format, args...)}
}

func metricsOf(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, defined %d", len(vals), len(defs))
	}
	return out, nil
}

// runEndToEnd builds the stack w.setups times (setup_s is the median build
// time, each build timed from the same collected heap) and measures each
// build for an equal share of d with tracing off. On the first build it first
// runs w.rssOps operations and reads the peak resident memory. Each build's
// close runs the post-run checks.
func runEndToEnd(out io.Writer, e *env, w *workload, d time.Duration) (result, error) {
	var res result
	setups := make([]float64, w.setups)
	var rss float64
	var p phase
	for i := range setups {
		res.Attempted++ // the build's checked warm-up pass
		runtime.GC()
		t := time.Now()
		s, err := w.build(e, fmt.Sprintf("store-%d", i), nil)
		if err != nil {
			res.Failed++
			return res, err
		}
		setups[i] = time.Since(t).Seconds()
		var q phase
		if i == 0 {
			q = measureOps(s, w.rssOps)
			rss = peakRSSMB()
			res.Attempted += q.ops
			res.Failed += q.failed
		}
		if q.err == nil {
			q = measure(s, d/time.Duration(w.setups))
			p.add(q)
			res.Attempted += q.ops
			res.Failed += q.failed
		}
		_, closeErr := s.close()
		if err := errors.Join(q.err, closeErr); err != nil {
			return res, err
		}
	}
	if len(p.rates) == 0 {
		return res, fmt.Errorf("no throughput window closed in %v", d)
	}
	fmt.Fprintf(out, "{\"samples\":{\"ops\":%d,\"jobs\":%d,\"windows\":%d,\"elapsed_s\":%.3f,\"op_p99_ms\":%.3f}}\n",
		p.ops, p.jobs, len(p.rates), p.elapsed.Seconds(), quantile(p.lat, 0.99))
	vals := map[string]float64{
		"setup_s":    median(setups),
		"op_p50_ms":  median(p.lat),
		"jobs_per_s": median(p.rates),

		"cpu_ms_per_job": median(p.cpuPerJob),
		"rss_peak_mb":    rss,
	}
	m, err := metricsOf(endToEnd, vals)
	res.Metrics = m
	return res, err
}
