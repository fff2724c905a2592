package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/shard"
)

// The traced run times calls into each layer from outside, at the program's
// public seams. Nothing here changes what the wrapped call computes.

// tracedPrefetcher is the harness.Prefetcher the report uses when traced:
// fleet.SuiteRunner's cell→job mapping, run over a (traced) fleet.Runner,
// with the time spent fanned out recorded as harness.prefetch_ms.
type tracedPrefetcher struct {
	runner fleet.Runner
	tr     *samples

	mu   sync.Mutex
	seen map[harness.Cell]bool
	all  []harness.Cell
}

func (p *tracedPrefetcher) Prefetch(cells []harness.Cell) (map[harness.Cell]*harness.Run, error) {
	t := time.Now()
	jobs := make([]fleet.Job, len(cells))
	for i, c := range cells {
		phase := fleet.Micro
		if c.Full {
			phase = fleet.Full
		}
		jobs[i] = fleet.Job{App: c.App.Name, Kind: c.Kind, Phase: phase}
	}
	results := fleet.RunSweep(context.Background(), p.runner, jobs)
	out := make(map[harness.Cell]*harness.Run, len(cells))
	for i, res := range results {
		if res.Err != nil {
			return nil, res.Err
		}
		out[cells[i]] = res.Run
	}
	p.tr.add("harness.prefetch_ms", ms(time.Since(t)))
	p.mu.Lock()
	for _, c := range cells {
		if !p.seen[c] {
			p.seen[c] = true
			p.all = append(p.all, c)
		}
	}
	p.mu.Unlock()
	return out, nil
}

func (p *tracedPrefetcher) cells() []harness.Cell {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]harness.Cell(nil), p.all...)
}

// tracedRunner wraps a fleet.Runner and records each job's queue wait
// (Start → started) and run time (started → deliver).
type tracedRunner struct {
	fleet.Runner
	tr *samples
}

func (r tracedRunner) Start(ctx context.Context, job fleet.Job, started func(), deliver func(fleet.Result)) error {
	submitted := time.Now()
	var began atomic.Int64
	return r.Runner.Start(ctx, job, func() {
		now := time.Now()
		began.Store(now.UnixNano())
		r.tr.add("fleet.queue_wait_ms", ms(now.Sub(submitted)))
		if started != nil {
			started()
		}
	}, func(res fleet.Result) {
		if b := began.Load(); b != 0 {
			r.tr.add("fleet.run_ms", ms(time.Since(time.Unix(0, b))))
		}
		deliver(res)
	})
}

// tracedNode wraps a shard.Node and records each Run. For a remote node it
// also records the wire overhead: Run's time minus the cell's execution
// time reported by the worker.
type tracedNode struct {
	shard.Node
	remote bool
	tr     *samples
}

func (n tracedNode) Run(ctx context.Context, job fleet.Job) fleet.Result {
	t := time.Now()
	res := n.Node.Run(ctx, job)
	d := time.Since(t)
	n.tr.add("shard.node_run_ms", ms(d))
	if n.remote && res.Err == nil {
		n.tr.add("shard.wire_overhead_ms", ms(d-res.Latency))
	}
	return res
}

// OnDead forwards the death notification a RemoteNode offers, so the cluster
// still evicts a dead node behind the wrapper.
func (n tracedNode) OnDead(fn func()) {
	if dn, ok := n.Node.(interface{ OnDead(func()) }); ok {
		dn.OnDead(fn)
	}
}

// countingDial is a shard.RemoteOptions.Dial that counts every byte read
// from and written to the worker connection as shard.wire_bytes.
func countingDial(addr string, tr *samples) func(ctx context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: c, tr: tr}, nil
	}
}

type countingConn struct {
	net.Conn
	tr *samples
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.tr.add("shard.wire_bytes", float64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.tr.add("shard.wire_bytes", float64(n))
	return n, err
}
