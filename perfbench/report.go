package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"

	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
)

// reportStack runs the full paper report the way cmd/greenbench does: a
// fleet.Pool with nproc slots behind the suite's Prefetcher.
type reportStack struct {
	pool   *fleet.Pool
	pre    harness.Prefetcher
	traced *tracedPrefetcher // nil when untraced
	want   []byte
}

func buildReport(e *env, _ string, tr *samples) (stack, error) {
	want, err := os.ReadFile(filepath.Join(e.golden, "report.txt"))
	if err != nil {
		return nil, err
	}
	r := &reportStack{pool: fleet.New(fleet.Options{Workers: e.nproc}), want: want}
	if tr == nil {
		r.pre = fleet.NewSuiteRunner(context.Background(), r.pool)
	} else {
		r.traced = &tracedPrefetcher{runner: tracedRunner{Runner: r.pool, tr: tr}, tr: tr, seen: map[harness.Cell]bool{}}
		r.pre = r.traced
	}
	if _, err := r.op(context.Background(), nil); err != nil {
		r.pool.Close()
		return nil, err
	}
	return r, nil
}

// op renders one report from a cold asset cache, so every report pays what
// one greenbench run pays, and compares it with the golden bytes.
func (r *reportStack) op(_ context.Context, done func(int)) (int, error) {
	browser.ResetAssetCache()
	before := r.pool.Stats()
	suite := harness.NewSuite()
	suite.SetPrefetcher(r.pre)
	var buf bytes.Buffer
	err := harness.RenderAll(&buf, suite)
	after := r.pool.Stats()
	jobs := int(after.Done - before.Done)
	if err != nil {
		return jobs, err
	}
	if !bytes.Equal(buf.Bytes(), r.want) {
		return jobs, mismatchf("report differs from golden/report.txt at byte %d", firstDiff(buf.Bytes(), r.want))
	}
	if done != nil {
		done(jobs)
	}
	return jobs, nil
}

func (r *reportStack) clients() int { return 1 }
func (r *reportStack) slots() int   { return r.pool.Workers() }

func (r *reportStack) cells() []harness.Cell {
	if r.traced == nil {
		return nil
	}
	return r.traced.cells()
}

func (r *reportStack) storeStats() (map[string]float64, error) {
	return zeroStoreStats(), nil
}

func (r *reportStack) close() (readPath, error) {
	r.pool.Close()
	return readPath{}, nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
