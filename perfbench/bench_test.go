package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runBench runs one short invocation against goldenDir and returns its exit
// status and parsed result line (nil when none was printed).
func runBench(t *testing.T, goldenDir string, args ...string) (int, *result) {
	t.Helper()
	var out bytes.Buffer
	args = append(args, "--golden", goldenDir, "--workdir", filepath.Join(t.TempDir(), "work"))
	code := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, `{"correct"`) {
		return code, nil
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatalf("result line %q: %v", last, err)
	}
	return code, &r
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

func keys(m map[string]metricValue) map[string]bool {
	out := map[string]bool{}
	for k := range m {
		out[k] = true
	}
	return out
}

// TestShortRuns runs every workload briefly, untraced and traced, on the
// checked-in golden files: each must pass its checks and report exactly its
// metric set, with the store and wire layers non-zero only where crossed.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace="+traced, func(t *testing.T) {
				code, r := runBench(t, "golden", "--workload", name, "--seed", "7", "--seconds", "0.5", "--trace", traced)
				if code != 0 || r == nil || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("exit %d, result %+v", code, r)
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				got := keys(r.Metrics)
				for _, n := range names(defs) {
					if !got[n] {
						t.Errorf("metric %s missing", n)
					}
				}
				if len(got) != len(defs) {
					t.Errorf("%d metrics, want %d", len(got), len(defs))
				}
				if traced == "0" {
					for n, m := range r.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
						}
					}
					return
				}
				for n, m := range r.Metrics {
					crossed := true
					switch {
					case strings.HasPrefix(n, "store."):
						crossed = name == "sweep-micro"
					case strings.HasPrefix(n, "shard.wire_"):
						crossed = name == "sweep-full-remote"
					case strings.HasPrefix(n, "shard."):
						crossed = name != "report"
					case strings.HasPrefix(n, "fleet.submit_"), strings.HasPrefix(n, "fleet.first_row_"):
						crossed = name != "report"
					case n == "harness.prefetch_frac":
						crossed = name == "report"
					case n == "trace_overhead_frac":
						continue // a difference of two timings: any sign
					}
					if crossed != (m.Value > 0) {
						t.Errorf("%s = %v on %s", n, m.Value, name)
					}
				}
			})
		}
	}
}

// copyGolden copies the golden directory so a test can alter one file.
func copyGolden(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []string{"report.txt", "micro.ndjson", "full.ndjson"} {
		b, err := os.ReadFile(filepath.Join("golden", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// alter rewrites the first occurrence of old in one golden file.
func alter(t *testing.T, dir, file, old, new string) {
	t.Helper()
	path := filepath.Join(dir, file)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(old)) {
		t.Fatalf("%s does not contain %q", file, old)
	}
	if err := os.WriteFile(path, bytes.Replace(b, []byte(old), []byte(new), 1), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChecksFire proves the output checks bite: one altered golden row, or
// one altered report byte, fails the run with no metrics.
func TestChecksFire(t *testing.T) {
	cases := []struct {
		workload, file, old, new string
	}{
		{"report", "report.txt", "GreenWeb", "GreenWab"},
		{"sweep-micro", "micro.ndjson", `"frames":6`, `"frames":7`},
		{"sweep-full-remote", "full.ndjson", `"frames":16`, `"frames":17`},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			dir := copyGolden(t)
			alter(t, dir, c.file, c.old, c.new)
			code, r := runBench(t, dir, "--workload", c.workload, "--seconds", "0.2", "--trace", "0")
			if code == 0 || r == nil {
				t.Fatalf("exit %d, result %+v: want a failing result line", code, r)
			}
			if r.Correct || r.Failed == 0 || len(r.Metrics) != 0 {
				t.Errorf("result %+v: want correct=false, failures, no metrics", r)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step with
// what the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s unknown to the program", w.Name)
		}
	}
	for _, set := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(set.json), len(set.defs))
			continue
		}
		for i, d := range set.defs {
			if set.json[i].Name != d.name || set.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, program %s/%s", i, set.json[i].Name, set.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
