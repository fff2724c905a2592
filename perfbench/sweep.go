package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/shard"
	"github.com/wattwiseweb/greenweb/internal/store"
)

// microApps are the six catalog apps whose micro cells are dominated by
// page load (clone, cascade, webapi install): ~1 ms cells leave admission,
// queueing, NDJSON and WAL writes a large share of each sweep.
var microApps = []string{"BBC", "Google", "CamanJS", "LZMA-JS", "MSN", "Todo"}

// nodeOptions are greensrv's and greennode's default per-node pool flags.
var nodeOptions = fleet.Options{
	JobTimeout: 2 * time.Minute, MaxAttempts: 3,
	RetryBaseDelay: 50 * time.Millisecond, RetryMaxDelay: 2 * time.Second,
}

// grid is one sweep request's app × kind cross product.
type grid struct {
	apps  []string
	kinds []string
}

// grids lists every sweep of appsPerSweep apps × two kinds drawn from
// names × kinds, in an order shuffled by seed. Clients take them in turn, so
// every run covers the whole grid space evenly, cycle after cycle, whatever
// the seed: the seed changes the order of the inputs, not their mix.
func grids(names []string, appsPerSweep int, kinds []harness.Kind, seed int64) []grid {
	kindNames := make([]string, len(kinds))
	for i, k := range kinds {
		kindNames[i] = string(k)
	}
	var out []grid
	for _, as := range subsets(names, appsPerSweep) {
		for _, ks := range subsets(kindNames, 2) {
			out = append(out, grid{apps: as, kinds: ks})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// subsets lists the k-element subsets of xs, each in xs's order.
func subsets(xs []string, k int) [][]string {
	if k == 0 {
		return [][]string{nil}
	}
	var out [][]string
	for i := 0; i+k <= len(xs); i++ {
		for _, rest := range subsets(xs[i+1:], k-1) {
			out = append(out, append([]string{xs[i]}, rest...))
		}
	}
	return out
}

// liveSweep is one streamed sweep, kept for the store replay check.
type liveSweep struct {
	id   string
	rows int
	body []byte
}

// sweepStack is the greensrv stack driven over loopback HTTP.
type sweepStack struct {
	phase  fleet.Phase
	apps   []string
	golden goldenRows
	grids  []grid
	next   atomic.Uint64
	nproc  int
	tr     *samples

	cancel  context.CancelFunc
	cluster *shard.Cluster
	manager *fleet.Manager
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client

	workers    []*shard.Worker
	workerDone []chan error

	st       *store.Store
	storeDir string
	mu       sync.Mutex
	live     []liveSweep
}

// Sweep shapes. A micro sweep is 2 of the 6 page-load apps × 2 kinds: the
// cells cost about the same, so small sweeps keep admission and streaming a
// large share. A full sweep is the whole catalog × 2 kinds — one governor
// pair compared over every app, as the paper's figures do: the catalog's
// full cells range from 0.3 to 30 ms, so sweeps of a few apps would make the
// latency distribution multi-modal and its median jump between modes from
// run to run.
func buildSweepMicro(e *env, storeName string, tr *samples) (stack, error) {
	return buildSweep(e, fleet.Micro, microApps, 2, filepath.Join(e.work, storeName), tr)
}

func buildSweepFullRemote(e *env, _ string, tr *samples) (stack, error) {
	return buildSweep(e, fleet.Full, apps.Names(), len(apps.Names()), "", tr)
}

// buildSweep wires the stack the way cmd/greensrv does with default flags:
// for the micro phase 2 local shard nodes and a WAL store in storeDir; for
// the full phase 2 in-process shard.Workers with 1 slot each, reached
// through shard.RemoteNode over loopback TCP, and no store. It then runs one
// checked warm-up sweep over the whole app × kind grid.
func buildSweep(e *env, ph fleet.Phase, names []string, appsPerSweep int, storeDir string, tr *samples) (stack, error) {
	browser.ResetAssetCache()
	golden, err := loadGolden(filepath.Join(e.golden, string(ph)+".ndjson"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &sweepStack{
		phase: ph, apps: names, golden: golden, nproc: e.nproc, tr: tr,
		grids:  grids(names, appsPerSweep, fleet.DefaultKinds, e.seed),
		cancel: cancel, served: make(chan error, 1), storeDir: storeDir,
	}
	if err := s.start(ctx); err != nil {
		s.close()
		return nil, err
	}
	kinds := make([]string, len(fleet.DefaultKinds))
	for i, k := range fleet.DefaultKinds {
		kinds[i] = string(k)
	}
	if _, err := s.sweep(ctx, grid{apps: names, kinds: kinds}, nil); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sweepStack) start(ctx context.Context) error {
	var nodes []shard.Node
	if s.phase == fleet.Full {
		for i := 0; i < 2; i++ {
			opts := nodeOptions
			opts.Workers = 1
			w := shard.NewWorker(shard.WorkerOptions{Pool: opts})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				w.Close()
				return err
			}
			done := make(chan error, 1)
			go func() { done <- w.Serve(ln) }()
			s.workers = append(s.workers, w)
			s.workerDone = append(s.workerDone, done)
			ro := shard.RemoteOptions{Addr: ln.Addr().String()}
			if s.tr != nil {
				ro.Dial = countingDial(ro.Addr, s.tr)
			}
			n, err := shard.NewRemoteNode(i, ro)
			if err != nil {
				for _, n := range nodes {
					n.Close()
				}
				return err
			}
			nodes = append(nodes, n)
		}
	} else {
		opts := nodeOptions
		opts.Workers = max(1, s.nproc/2)
		for i := 0; i < 2; i++ {
			nodes = append(nodes, shard.NewLocalNode(i, opts))
		}
	}
	if s.tr != nil {
		for i, n := range nodes {
			nodes[i] = tracedNode{Node: n, remote: s.phase == fleet.Full, tr: s.tr}
		}
	}
	s.cluster = shard.NewWithNodes(nodes, 0)
	var runner fleet.Runner = s.cluster
	if s.tr != nil {
		runner = tracedRunner{Runner: s.cluster, tr: s.tr}
	}
	s.manager = fleet.NewManager(ctx, runner)
	if s.storeDir != "" {
		st, err := store.Open(s.storeDir)
		if err != nil {
			return err
		}
		st.SetCompactThreshold(64 << 20)
		s.st = st
		s.manager.SetStore(st)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{
		Handler:           fleet.NewServer(s.manager),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     s.nproc,
			MaxIdleConnsPerHost: s.nproc,
			DisableCompression:  true,
		},
	}
	return nil
}

func (s *sweepStack) op(ctx context.Context, done func(int)) (int, error) {
	g := s.grids[int((s.next.Add(1)-1)%uint64(len(s.grids)))]
	return s.sweep(ctx, g, done)
}

// sweep POSTs one sweep, streams its results with ?deterministic=1, and
// compares every row with its golden row, calling done (if not nil) for each
// row that matches.
func (s *sweepStack) sweep(ctx context.Context, g grid, done func(int)) (int, error) {
	body, err := json.Marshal(fleet.SweepRequest{Apps: g.apps, Kinds: g.kinds, Phase: string(s.phase)})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	var acc struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /v1/sweeps: %s", resp.Status)
	}
	if err != nil {
		return 0, fmt.Errorf("POST /v1/sweeps: %w", err)
	}
	s.tr.add("fleet.submit_ms", ms(time.Since(t0)))

	req, err = http.NewRequestWithContext(ctx, http.MethodGet,
		s.base+"/v1/sweeps/"+acc.ID+"/results?deterministic=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err = s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET results of %s: %s", acc.ID, resp.Status)
	}
	want := len(g.apps) * len(g.kinds)
	var stream bytes.Buffer
	br := bufio.NewReader(resp.Body)
	rows := 0
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if rows == 0 {
				s.tr.add("fleet.first_row_ms", ms(time.Since(t0)))
			}
			if s.st != nil {
				stream.Write(line) // kept for the store replay check
			}
			if rows >= want {
				return rows, mismatchf("sweep %s: more than %d rows", acc.ID, want)
			}
			app, kind := g.apps[rows/len(g.kinds)], g.kinds[rows%len(g.kinds)]
			if err := s.golden.check(bytes.TrimSuffix(line, []byte("\n")), rows, app, kind, string(s.phase)); err != nil {
				return rows, fmt.Errorf("sweep %s: %w", acc.ID, err)
			}
			rows++
			if done != nil {
				done(1)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return rows, fmt.Errorf("reading results of %s: %w", acc.ID, err)
		}
	}
	if rows != want || acc.Jobs != want {
		return rows, mismatchf("sweep %s: %d rows streamed, %d jobs accepted, want %d", acc.ID, rows, acc.Jobs, want)
	}
	if s.st != nil {
		s.mu.Lock()
		s.live = append(s.live, liveSweep{id: acc.ID, rows: rows, body: stream.Bytes()})
		s.mu.Unlock()
	}
	return rows, nil
}

func (s *sweepStack) clients() int { return s.nproc }
func (s *sweepStack) slots() int   { return s.cluster.Workers() }

func (s *sweepStack) cells() []harness.Cell {
	var out []harness.Cell
	for _, name := range s.apps {
		app, _ := apps.ByName(name)
		for _, k := range fleet.DefaultKinds {
			out = append(out, harness.Cell{App: app, Kind: k, Full: s.phase == fleet.Full})
		}
	}
	return out
}

// waitPersisted blocks until every streamed sweep's end record is fsynced.
func (s *sweepStack) waitPersisted() error {
	deadline := time.Now().Add(time.Minute)
	s.mu.Lock()
	live := append([]liveSweep(nil), s.live...)
	s.mu.Unlock()
	for _, l := range live {
		sw, ok := s.manager.Get(fleet.SweepID(l.id))
		if !ok {
			return mismatchf("sweep %s: unknown to the manager", l.id)
		}
		for !sw.Persisted() {
			if time.Now().After(deadline) {
				return mismatchf("sweep %s: not persisted within a minute", l.id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// storeProbeSweeps caps how many persisted sweeps the direct store probe
// rewrites (each End is an fsync).
const storeProbeSweeps = 200

// storeStats times the store directly with the workload's real persisted
// rows — AppendRow per row and End (with its fsync) per sweep, into a
// scratch store — and reads the live WAL's size per job.
func (s *sweepStack) storeStats() (map[string]float64, error) {
	if s.st == nil {
		return zeroStoreStats(), nil
	}
	if err := s.waitPersisted(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	live := append([]liveSweep(nil), s.live...)
	s.mu.Unlock()
	jobs := 0
	for _, l := range live {
		jobs += l.rows
	}
	fi, err := os.Stat(filepath.Join(s.storeDir, "wal.log"))
	if err != nil {
		return nil, err
	}
	probe, err := store.Open(s.storeDir + "-probe")
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	var appends, ends []float64
	for i, l := range live {
		if i == storeProbeSweeps {
			break
		}
		rec, ok := s.st.Get(l.id)
		if !ok {
			return nil, mismatchf("sweep %s: not in the store", l.id)
		}
		if err := probe.Begin(l.id, rec.Created, rec.Meta); err != nil {
			return nil, err
		}
		for j, row := range rec.Rows {
			t := time.Now()
			if err := probe.AppendRow(l.id, j, row); err != nil {
				return nil, err
			}
			appends = append(appends, us(time.Since(t)))
		}
		t := time.Now()
		if err := probe.End(l.id); err != nil {
			return nil, err
		}
		ends = append(ends, ms(time.Since(t)))
	}
	return map[string]float64{
		"store.append_row_us":     median(appends),
		"store.end_ms":            median(ends),
		"store.wal_bytes_per_job": float64(fi.Size()) / float64(jobs),
	}, nil
}

// close shuts the stack down. With a store it then checks the read path:
// the store is reopened and every persisted sweep is replayed through a
// fresh Manager and Server, and must match the live stream byte-for-byte.
func (s *sweepStack) close() (readPath, error) {
	var errs []error
	if s.st != nil && s.manager != nil {
		errs = append(errs, s.waitPersisted())
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.client.CloseIdleConnections()
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	s.cancel()
	for i, w := range s.workers {
		w.Close()
		if err := <-s.workerDone[i]; err != nil {
			errs = append(errs, err)
		}
	}
	if s.st != nil {
		errs = append(errs, s.st.Close())
	}
	if err := errors.Join(errs...); err != nil || s.st == nil {
		return readPath{}, err
	}
	return s.replay()
}

func (s *sweepStack) replay() (readPath, error) {
	var rp readPath
	t := time.Now()
	st, err := store.Open(s.storeDir)
	if err != nil {
		return rp, err
	}
	rp.openMS = ms(time.Since(t))
	defer st.Close()
	if n := len(st.IDs()); n != len(s.live) || st.Torn() != 0 || st.Dropped() != 0 {
		return rp, mismatchf("reopened store holds %d sweeps (%d torn records, %d dropped), streamed %d",
			n, st.Torn(), st.Dropped(), len(s.live))
	}
	pool := fleet.New(fleet.Options{Workers: 1})
	defer pool.Close()
	m := fleet.NewManager(context.Background(), pool)
	m.SetStore(st)
	api := fleet.NewServer(m)
	t = time.Now()
	for _, l := range s.live {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+l.id+"/results?deterministic=1", nil))
		if rec.Code != http.StatusOK {
			return rp, mismatchf("replay of %s: status %d", l.id, rec.Code)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, l.body) {
			return rp, mismatchf("replay of %s differs from the live stream at byte %d", l.id, firstDiff(got, l.body))
		}
	}
	if len(s.live) > 0 {
		rp.replayMS = ms(time.Since(t)) / float64(len(s.live))
	}
	return rp, nil
}
