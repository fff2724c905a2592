package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
)

// goldenRows maps "app|kind|phase" to the deterministic NDJSON row of that
// cell, minus its leading "index" field (a row's index is its position in
// the sweep that produced it).
type goldenRows map[string][]byte

func goldenKey(app, kind, phase string) string { return app + "|" + kind + "|" + phase }

const indexPrefix = `{"index":`

// splitIndex separates a result row's leading index field from the rest.
func splitIndex(line []byte) (int, []byte, error) {
	if !bytes.HasPrefix(line, []byte(indexPrefix)) {
		return 0, nil, fmt.Errorf("row does not start with %s", indexPrefix)
	}
	rest := line[len(indexPrefix):]
	comma := bytes.IndexByte(rest, ',')
	if comma < 0 {
		return 0, nil, fmt.Errorf("row has no field after its index")
	}
	n, err := strconv.Atoi(string(rest[:comma]))
	if err != nil {
		return 0, nil, fmt.Errorf("row index: %w", err)
	}
	return n, rest[comma+1:], nil
}

func loadGolden(path string) (goldenRows, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := goldenRows{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var key struct{ App, Kind, Phase string }
		if err := json.Unmarshal(line, &key); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		_, rest, err := splitIndex(line)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		g[goldenKey(key.App, key.Kind, key.Phase)] = append([]byte(nil), rest...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// check compares one streamed row, expected at position index for cell
// (app, kind, phase), with its golden row.
func (g goldenRows) check(line []byte, index int, app, kind, phase string) error {
	want, ok := g[goldenKey(app, kind, phase)]
	if !ok {
		return mismatchf("no golden row for %s/%s/%s", app, kind, phase)
	}
	n, rest, err := splitIndex(line)
	if err != nil {
		return mismatchf("row %d: %v", index, err)
	}
	if n != index {
		return mismatchf("row %d carries index %d", index, n)
	}
	if !bytes.Equal(rest, want) {
		return mismatchf("row %d (%s/%s/%s) differs from its golden row at byte %d:\n got %s\nwant %s",
			index, app, kind, phase, firstDiff(rest, want), rest, want)
	}
	return nil
}

// regenerateGolden writes the golden files from the current code: the
// report from the sequential suite, and one deterministic row per cell the
// sweep workloads can draw. The checked-in files were generated this way
// from the seed code; regenerate only when a change is meant to alter
// simulated results.
func regenerateGolden(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var report bytes.Buffer
	if err := harness.RenderAll(&report, harness.NewSuite()); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "report.txt"), report.Bytes(), 0o644); err != nil {
		return err
	}
	pool := fleet.New(fleet.Options{})
	defer pool.Close()
	for _, set := range []struct {
		phase fleet.Phase
		apps  []string
	}{{fleet.Micro, microApps}, {fleet.Full, apps.Names()}} {
		var jobs []fleet.Job
		for _, name := range set.apps {
			for _, k := range fleet.DefaultKinds {
				jobs = append(jobs, fleet.Job{App: name, Kind: k, Phase: set.phase})
			}
		}
		results := pool.RunSweep(context.Background(), jobs)
		for _, r := range results {
			if r.Err != nil {
				return fmt.Errorf("%s: %w", r.Job, r.Err)
			}
		}
		var rows bytes.Buffer
		if err := fleet.WriteResults(&rows, results, true); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, string(set.phase)+".ndjson"), rows.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
