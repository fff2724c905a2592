package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// fastRemote is the test timing profile: suspicion and reconnection resolve
// in milliseconds so failure paths run inside the test budget.
func fastRemote(addr string) RemoteOptions {
	return RemoteOptions{
		Addr:              addr,
		DialTimeout:       2 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  50 * time.Millisecond,
		SuspectAfter:      2,
		MaxReconnects:     3,
		ReconnectBase:     5 * time.Millisecond,
		ReconnectMax:      20 * time.Millisecond,
		Seed:              1,
	}
}

// startWorker serves a Worker on a loopback listener and returns its address.
func startWorker(t *testing.T, opts WorkerOptions) (*Worker, string) {
	t.Helper()
	w := NewWorker(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(l)
	t.Cleanup(w.Close)
	return w, l.Addr().String()
}

// TestRemoteSweepMatchesLocal pins the wire codec against real harness
// execution: a full faulted sweep through a greennode-style worker renders
// byte-identically to the sequential in-process path — including retry and
// quarantine provenance, which round-trips the wire too.
func TestRemoteSweepMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace sweep ×2 paths")
	}
	jobs := topologyJobs()
	poolOpts := fleet.Options{MaxAttempts: 2, RetryBaseDelay: time.Millisecond}

	seqOpts := poolOpts
	seqOpts.Workers = 1
	want := render(t, fleet.New(seqOpts), jobs)

	workerPool := poolOpts
	workerPool.Workers = 4
	got := render(t, remotePool(t, workerPool), jobs)
	if got != want {
		t.Fatalf("remote sweep diverged from sequential output:\n--- got\n%s--- want\n%s", got, want)
	}
}

// remotePool is a one-node fleet.Pool whose node is a loopback Worker with
// the given pool template. Its heartbeat is lenient: full-trace cells
// saturate the CPU (drastically so under -race), and the tests using it pin
// codec parity, not failure timing — a starved heartbeat loop must not
// break the session and force re-homes.
func remotePool(t *testing.T, workerPool fleet.Options) *fleet.Pool {
	t.Helper()
	_, addr := startWorker(t, WorkerOptions{Pool: workerPool})
	opts := fastRemote(addr)
	opts.HeartbeatInterval = 200 * time.Millisecond
	opts.HeartbeatTimeout = 5 * time.Second
	opts.SuspectAfter = 10
	n, err := NewRemoteNode(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fleet.NewWithNodes([]fleet.Node{n}, 0)
}

// serveSweep posts body to a greensrv API over pool and returns the
// deterministic results, the decision-event stream and the per-job ledger
// trace, once every job has finished. It also checks the results path
// left each run's timeline undecoded when decoded is false.
func serveSweep(t *testing.T, pool *fleet.Pool, body string, decoded bool) map[string]string {
	t.Helper()
	defer pool.Close()
	m := fleet.NewManager(context.Background(), pool)
	m.SetTraceCollector(trace.NewCollector())
	srv := httptest.NewServer(fleet.NewServer(m))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d, %v", resp.StatusCode, err)
	}
	get := func(path string) string {
		resp, err := http.Get(srv.URL + "/v1/sweeps/" + ack.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
		}
		return string(b)
	}
	out := map[string]string{"/results": get("/results?deterministic=1")}

	s, _ := m.Get(fleet.SweepID(ack.ID))
	for i := 0; i < s.Len(); i++ {
		res, err := s.Result(context.Background(), i)
		if err != nil || res.Run == nil {
			t.Fatalf("job %d: %v, %+v", i, err, res.Err)
		}
		if got := res.Run.Spans != nil || res.Run.ConfigMarks != nil; got != decoded {
			t.Fatalf("job %d: run carries decoded timeline = %v, want %v", i, got, decoded)
		}
		tl, err := res.Run.Timeline()
		if err != nil {
			t.Fatal(err)
		}
		if ds := obs.DecisionsOf(tl.Spans); len(ds) == 0 {
			t.Fatalf("job %d: Timeline() = %d spans, %d frame spans; want frame spans", i, len(tl.Spans), len(ds))
		}
	}
	out["/events"] = get("/events")
	out["/trace"] = get("/trace")
	return out
}

// TestRemoteServerBytesMatchLocal: a sweep served through greensrv's HTTP
// surface renders the same bytes whether its jobs ran on local nodes or on
// a loopback worker — results, the decision-event stream and the per-job
// ledger trace. The remote runs reach the coordinator with their timelines
// still encoded; only the event and trace exports decode them. The staged
// input pins the per-sweep stage_workers field, the one way to stage a
// sweep, on both topologies.
func TestRemoteServerBytesMatchLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace sweep ×2 topologies")
	}
	for _, in := range []struct{ name, body, mark string }{
		{"full", `{"apps":["Todo","MSN"],"kinds":["GreenWeb-I","Perf"],"phase":"full"}`, `"frames":`},
		{"staged", `{"apps":["SPA-Feed","Todo"],"kinds":["GreenWeb-I","Perf"],"phase":"micro","stage_workers":[4]}`,
			`"stage_workers":4,`},
	} {
		want := serveSweep(t, fleet.New(fleet.Options{Workers: 2}), in.body, true)
		got := serveSweep(t, remotePool(t, fleet.Options{Workers: 2}), in.body, false)
		// Every job must contribute to every body, or equal bytes prove nothing.
		for i := 0; i < 4; i++ {
			for path, row := range map[string]string{
				"/results": fmt.Sprintf(`{"index":%d,`, i),
				"/events":  fmt.Sprintf(`{"index":%d,`, i),
				"/trace":   fmt.Sprintf(`"pid": %d,`, i+1),
			} {
				if !strings.Contains(want[path], row) {
					t.Fatalf("%s: local %s has no %s row:\n%.2000s", in.name, path, row, want[path])
				}
			}
		}
		if n := strings.Count(want["/results"], in.mark); n != 4 {
			t.Fatalf("%s: %d of 4 local result rows carry %s:\n%s", in.name, n, in.mark, want["/results"])
		}
		for _, path := range []string{"/results", "/events", "/trace"} {
			if got[path] != want[path] {
				t.Errorf("%s: remote %s diverged from local (%d vs %d bytes)", in.name, path, len(got[path]), len(want[path]))
			}
		}
	}
}

// TestKillMidSweepDeterminism is the acceptance pin: a two-node cluster
// whose worker is killed mid-sweep (the in-process analogue of kill -9)
// still streams bytes identical to the pristine single-node run. Jobs
// in flight on the dying node come back as fleet.ErrNodeDown and re-home; queued
// jobs move at eviction; both re-execute deterministically elsewhere.
func TestKillMidSweepDeterminism(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &harness.Run{Frames: len(j.App), Energy: acmp.Joules(0.25 * float64(len(j.App)))}, nil
	}
	jobs := make([]fleet.Job, 30)
	for i := range jobs {
		jobs[i] = fleet.Job{App: fmt.Sprintf("app-%d", i), Kind: harness.Perf, Phase: fleet.Full}
	}

	want := render(t, fleet.New(fleet.Options{Workers: 1, Execute: exec}), jobs)

	// Worker 0 kills itself while executing its fifth job, so that job (and
	// any sibling in flight) can never write a result frame back.
	var doomed *Worker
	var executed atomic.Int64
	killExec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		if executed.Add(1) == 5 {
			doomed.Kill()
		}
		return exec(ctx, j)
	}
	w0 := NewWorker(WorkerOptions{Pool: fleet.Options{Workers: 2, Execute: killExec}})
	doomed = w0
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w0.Serve(l0)
	t.Cleanup(w0.Close)
	_, addr1 := startWorker(t, WorkerOptions{Pool: fleet.Options{Workers: 2, Execute: exec}})

	n0, err := NewRemoteNode(0, fastRemote(l0.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	n1, err := NewRemoteNode(1, fastRemote(addr1))
	if err != nil {
		t.Fatal(err)
	}
	c := fleet.NewWithNodes([]fleet.Node{n0, n1}, 0)
	got := render(t, c, jobs)
	if got != want {
		t.Fatalf("kill-mid-sweep output diverged from pristine single-node run:\n--- got\n%s--- want\n%s", got, want)
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	if c.Rehomed(0) == 0 {
		t.Fatal("no jobs were re-homed off the killed node")
	}
}

// corruptingListener hands out connections that flip the last byte of the
// first result frame any of them writes — the timeline trailer's final
// byte — so the reader sees an intact envelope over a corrupt trailer.
type corruptingListener struct {
	net.Listener
	armed atomic.Bool
}

func (l *corruptingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &corruptingConn{Conn: c, l: l}, nil
}

type corruptingConn struct {
	net.Conn
	l *corruptingListener
}

func (c *corruptingConn) Write(p []byte) (int, error) {
	if len(p) > 8 && bytes.HasPrefix(p[8:], []byte(`{"t":"result"`)) && c.l.armed.CompareAndSwap(true, false) {
		p = bytes.Clone(p)
		p[len(p)-1] ^= 0xff
	}
	return c.Conn.Write(p)
}

// TestCorruptTrailerRehomes: a result whose trailer fails its checksum is
// refused at the frame reader like a torn frame — the session breaks, the
// job re-homes, and the sweep still renders the pristine bytes.
func TestCorruptTrailerRehomes(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		return &harness.Run{Frames: len(j.App), Spans: []ledger.Span{{ID: 1, Name: j.App}}}, nil
	}
	jobs := make([]fleet.Job, 6)
	for i := range jobs {
		jobs[i] = fleet.Job{App: fmt.Sprintf("app-%d", i), Kind: harness.Perf, Phase: fleet.Full}
	}
	want := render(t, fleet.New(fleet.Options{Workers: 1, Execute: exec}), jobs)

	w := NewWorker(WorkerOptions{Pool: fleet.Options{Workers: 1, Execute: exec}})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &corruptingListener{Listener: inner}
	l.armed.Store(true)
	go w.Serve(l)
	t.Cleanup(w.Close)
	n, err := NewRemoteNode(0, fastRemote(inner.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	c := fleet.NewWithNodes([]fleet.Node{n}, 0)
	got := render(t, c, jobs)
	if got != want {
		t.Fatalf("sweep over a corrupted trailer diverged:\n--- got\n%s--- want\n%s", got, want)
	}
	if l.armed.Load() {
		t.Fatal("no result frame was corrupted; the test proved nothing")
	}
	if c.Rehomed(0) == 0 || n.Health().Reconnects == 0 {
		t.Fatalf("rehomed=%d reconnects=%d; the corrupt frame should break the session and re-home its job",
			c.Rehomed(0), n.Health().Reconnects)
	}
}

// TestHeartbeatSuspicionAndDeath: a worker that handshakes, then goes
// mute — swallowing pings and jobs — is suspected after consecutive
// heartbeat misses; with its listener gone, the reconnect budget exhausts
// and the node is declared dead, firing OnDead and failing in-flight Runs
// with fleet.ErrNodeDown.
func TestHeartbeatSuspicionAndDeath(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil { // hello
			return
		}
		writeFrame(conn, frame{T: frameWelcome, Proto: protoVersion, Workers: 1})
		l.Close() // one connection only: reconnects must fail
		for {     // swallow frames, answer nothing
			if _, err := readFrame(conn); err != nil {
				return
			}
		}
	}()

	opts := fastRemote(l.Addr().String())
	opts.HeartbeatInterval = 5 * time.Millisecond
	opts.HeartbeatTimeout = 10 * time.Millisecond
	n, err := NewRemoteNode(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	dead := make(chan struct{})
	n.OnDead(func() { close(dead) })

	resc := make(chan fleet.Result, 1)
	go func() { resc <- n.Run(context.Background(), fleet.Job{App: "mute"}) }()

	select {
	case <-dead:
	case <-time.After(5 * time.Second):
		t.Fatal("node never declared dead")
	}
	res := <-resc
	if !errors.Is(res.Err, fleet.ErrNodeDown) {
		t.Fatalf("in-flight Run err = %v, want fleet.ErrNodeDown", res.Err)
	}
	h := n.Health()
	if !h.Dead || h.Connected {
		t.Fatalf("health = %+v, want dead and disconnected", h)
	}
	if h.HeartbeatMisses < int64(opts.SuspectAfter) {
		t.Fatalf("heartbeat misses = %d, want >= %d", h.HeartbeatMisses, opts.SuspectAfter)
	}
	if h.Reconnects != int64(opts.MaxReconnects) {
		t.Fatalf("reconnect attempts = %d, want %d", h.Reconnects, opts.MaxReconnects)
	}
}

// TestRemoteHealthMetricsExposition: a cluster over remote nodes exposes
// the transport-health family — node_up, heartbeat RTT, reconnects, misses —
// alongside the eviction and re-home counters.
func TestRemoteHealthMetricsExposition(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) { return &harness.Run{}, nil }
	_, addr := startWorker(t, WorkerOptions{Pool: fleet.Options{Workers: 1, Execute: exec}})
	n, err := NewRemoteNode(0, fastRemote(addr))
	if err != nil {
		t.Fatal(err)
	}
	c := fleet.NewWithNodes([]fleet.Node{n}, 0)
	defer c.Close()
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`greenweb_shard_node_up{node="0"} 1`,
		`greenweb_shard_heartbeat_rtt_seconds{node="0"}`,
		`greenweb_shard_reconnects_total{node="0"} 0`,
		`greenweb_shard_heartbeat_misses_total{node="0"} 0`,
		`greenweb_shard_rehomed_jobs_total{node="0"} 0`,
		"greenweb_shard_evictions_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestWorkerRefusesProtocolMismatch: a hello with the wrong protocol version
// is answered with a refusal welcome, and NewRemoteNode surfaces it.
func TestWorkerRefusesProtocolMismatch(t *testing.T) {
	_, addr := startWorker(t, WorkerOptions{Pool: fleet.Options{Workers: 1,
		Execute: func(ctx context.Context, j fleet.Job) (*harness.Run, error) { return &harness.Run{}, nil }}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, frame{T: frameHello, Proto: protoVersion + 1}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.T != frameWelcome || f.Err == "" {
		t.Fatalf("mismatched hello answered %+v, want refusal welcome", f)
	}
	if !strings.Contains(f.Err, "proto") {
		t.Fatalf("refusal %q does not name the protocol", f.Err)
	}
}

// TestRemoteNodeCancelPropagates: cancelling the job context mid-run returns
// promptly with ctx.Err and ships a best-effort cancel frame that aborts the
// worker-side execution.
func TestRemoteNodeCancelPropagates(t *testing.T) {
	started := make(chan struct{}, 1)
	aborted := make(chan struct{}, 1)
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			aborted <- struct{}{}
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return &harness.Run{}, nil
		}
	}
	_, addr := startWorker(t, WorkerOptions{Pool: fleet.Options{Workers: 1, Execute: exec}})
	n, err := NewRemoteNode(0, fastRemote(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	ctx, cancel := context.WithCancel(context.Background())
	resc := make(chan fleet.Result, 1)
	go func() { resc <- n.Run(ctx, fleet.Job{App: "slow"}) }()
	<-started
	cancel()
	select {
	case res := <-resc:
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("cancelled Run err = %v, want context.Canceled", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	select {
	case <-aborted:
	case <-time.After(2 * time.Second):
		t.Fatal("worker-side execution never saw the cancellation")
	}
}
