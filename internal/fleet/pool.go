package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// The queue has one partition per node. A submission lands on a partition
// round-robin; each node's pullers pop their home partition FIFO and, when
// it runs dry, steal from the back of the busiest sibling — classic
// work-stealing, so a node stuck on a slow cell does not strand queued work
// behind it. Steals and per-partition depths are exported through obs.
//
// Failure handling: a Run result wrapping ErrNodeDown means the transport
// failed under the job, not the job under the node — the puller re-homes
// the item into a live partition instead of delivering a failure, and the
// deterministic cell re-executes elsewhere with an identical result. A node
// declared dead (heartbeat suspicion through the full reconnect budget) is
// evicted: its partition stops accepting placements, its queued jobs move
// to sibling partitions, and its pullers exit. Sweep bytes therefore do not
// depend on which nodes survived.

// item is one queued submission.
type item struct {
	job     Job
	ctx     context.Context
	started func()
	deliver func(Result)
	// rehomed marks an item re-entering the queue after its node died
	// mid-flight. Its admission token was released on the first pop, so the
	// next pop must not release another.
	rehomed bool
}

// queue is the partitioned job queue: one FIFO deque per node, guarded by a
// single mutex (contention is negligible next to job execution, which runs
// a whole simulated device). Home pops take the front; steals take the
// back, so a thief grabs the work its victim would reach last.
type queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parts   [][]item
	evicted []bool
	closed  bool
}

func newQueue(partitions int) *queue {
	q := &queue{parts: make([][]item, partitions), evicted: make([]bool, partitions)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues onto a partition; false if the partition has been evicted
// (the caller picks another).
func (q *queue) push(part int, it item) bool {
	q.mu.Lock()
	if q.evicted[part] {
		q.mu.Unlock()
		return false
	}
	q.parts[part] = append(q.parts[part], it)
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// pop blocks until an item is available for the given home partition (own
// front, else the back of the fullest sibling), the home partition is
// evicted, or the queue is closed and empty. It reports the partition the
// item came from.
func (q *queue) pop(home int) (item, int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.evicted[home] {
			return item{}, -1, false
		}
		if len(q.parts[home]) > 0 {
			it := q.parts[home][0]
			q.parts[home] = q.parts[home][1:]
			return it, home, true
		}
		// Steal from the deepest sibling — balances better than first-found
		// and keeps the scan deterministic for equal depths (lowest index).
		victim, depth := -1, 0
		for p := range q.parts {
			if p != home && len(q.parts[p]) > depth {
				victim, depth = p, len(q.parts[p])
			}
		}
		if victim >= 0 {
			n := len(q.parts[victim])
			it := q.parts[victim][n-1]
			q.parts[victim] = q.parts[victim][:n-1]
			return it, victim, true
		}
		if q.closed {
			return item{}, -1, false
		}
		q.cond.Wait()
	}
}

// evictPartition marks part dead and re-homes its queued items onto live
// partitions round-robin. Items that cannot be placed because no live
// partition remains are returned stranded, for failure delivery. moved is
// -1 when the partition was already evicted.
func (q *queue) evictPartition(part int) (moved int, stranded []item) {
	q.mu.Lock()
	defer func() {
		q.mu.Unlock()
		q.cond.Broadcast() // wake the dead node's pullers and the new homes
	}()
	if q.evicted[part] {
		return -1, nil
	}
	q.evicted[part] = true
	items := q.parts[part]
	q.parts[part] = nil
	var live []int
	for p := range q.parts {
		if p != part && !q.evicted[p] {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return 0, items
	}
	for i, it := range items {
		q.parts[live[i%len(live)]] = append(q.parts[live[i%len(live)]], it)
	}
	return len(items), nil
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *queue) depth(part int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.parts[part])
}

// Pool is the scheduler: a partitioned work-stealing queue over a set of
// Nodes, with one puller goroutine per node execution slot. It implements
// Runner. Create with New or NewWithNodes, stop with Close.
type Pool struct {
	nodes []Node
	q     *queue
	slots chan struct{} // total-queue-depth semaphore
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool

	seq         atomic.Uint64 // round-robin partition cursor
	queued      atomic.Int64
	running     atomic.Int64
	done        atomic.Int64
	failed      atomic.Int64
	retried     atomic.Int64   // attempts beyond each job's first
	quarantined atomic.Int64   // jobs that exhausted every attempt
	steals      []atomic.Int64 // per stealing node
	pulled      []atomic.Int64 // jobs executed per node
	rehomed     []atomic.Int64 // jobs re-homed off each node (queued + in-flight)
	spanDrops   []atomic.Int64 // trace spans each node's jobs dropped to budgets
	evictions   atomic.Int64
	start       time.Time
	busy        atomic.Int64 // accumulated busy nanoseconds across slots
	hist        *obs.Histogram
}

// New builds a pool over one LocalNode with opts.Workers slots (0 →
// GOMAXPROCS) and starts its pullers.
func New(opts Options) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return NewWithNodes([]Node{NewLocalNode(0, opts)}, opts.QueueDepth)
}

// NewWithNodes builds a pool over caller-supplied nodes and starts one
// puller per node slot. Node IDs must equal their slice index. queueDepth
// bounds the jobs queued across all partitions (admission control reads
// this backpressure); 0 → 4× total slots.
func NewWithNodes(nodes []Node, queueDepth int) *Pool {
	total := 0
	for _, n := range nodes {
		total += n.Workers()
	}
	if queueDepth <= 0 {
		queueDepth = 4 * total
	}
	p := &Pool{
		nodes:     nodes,
		q:         newQueue(len(nodes)),
		slots:     make(chan struct{}, queueDepth),
		steals:    make([]atomic.Int64, len(nodes)),
		pulled:    make([]atomic.Int64, len(nodes)),
		rehomed:   make([]atomic.Int64, len(nodes)),
		spanDrops: make([]atomic.Int64, len(nodes)),
		start:     time.Now(),
		hist:      obs.NewLatencyHistogram(),
	}
	slot := 0
	for _, n := range nodes {
		for w := 0; w < n.Workers(); w++ {
			p.wg.Add(1)
			go p.puller(n, slot)
			slot++
		}
	}
	// Nodes that can report their own death (a remote node after heartbeat
	// suspicion exhausts the reconnect budget) trigger eviction.
	for i, n := range nodes {
		if dn, ok := n.(deathNotifier); ok {
			id := i
			dn.OnDead(func() { p.Evict(id) })
		}
	}
	return p
}

// Evict removes node id from live service: its partition stops accepting
// placements, its queued jobs re-enter sibling partitions, and its pullers
// exit once their in-flight calls resolve (a dead remote node resolves them
// with ErrNodeDown, which re-homes the jobs too). With no live sibling the
// queued jobs are delivered as ErrNoNodes failures. Idempotent; normally
// driven by a remote node's death notification, but callable directly to
// drain a node administratively.
func (p *Pool) Evict(id int) {
	if id < 0 || id >= len(p.nodes) {
		return
	}
	moved, stranded := p.q.evictPartition(id)
	if moved < 0 {
		return // already evicted
	}
	p.evictions.Add(1)
	p.rehomed[id].Add(int64(moved))
	// Stranded failures surface before the node close, which may block
	// draining the dead node's in-flight work.
	for _, it := range stranded {
		p.queued.Add(-1)
		if !it.rehomed {
			<-p.slots
		}
		p.failed.Add(1)
		if it.deliver != nil {
			it.deliver(Result{Job: it.job, Worker: -1,
				Err: fmt.Errorf("%w: node %d evicted last", ErrNoNodes, id)})
		}
	}
	p.nodes[id].Close()
}

// Evictions reports how many nodes have been evicted.
func (p *Pool) Evictions() int64 { return p.evictions.Load() }

// Rehomed reports how many jobs have been re-homed off node id.
func (p *Pool) Rehomed(id int) int64 { return p.rehomed[id].Load() }

// sweepTrace resolves a traced job's server-side span buffer; nil for
// untraced jobs (or a trace already evicted from the collector), so every
// call site stays a single nil check.
func sweepTrace(job Job) *trace.SweepTrace {
	if job.Trace == nil {
		return nil
	}
	if tr, ok := trace.Default().Get(job.Trace.Sweep); ok {
		return tr
	}
	return nil
}

// puller is one node execution slot: pop (home first, then steal), run on
// the owning node, deliver — or re-home when the node died under the job.
func (p *Pool) puller(n Node, slot int) {
	defer p.wg.Done()
	for {
		it, from, ok := p.q.pop(n.ID())
		if !ok {
			return
		}
		if !it.rehomed {
			<-p.slots
		}
		p.queued.Add(-1)
		tr := sweepTrace(it.job)
		if from != n.ID() {
			p.steals[n.ID()].Add(1)
			if tr != nil {
				// Steals are instants: the interesting fact is that the job
				// changed hands, not how long the handoff took.
				tr.Record(it.job.Trace.Job, it.job.Trace.Parent, "steal", "sched",
					time.Now(), 0, map[string]string{
						"thief":  strconv.Itoa(n.ID()),
						"victim": strconv.Itoa(from),
					})
			}
		}
		p.pulled[n.ID()].Add(1)
		if it.started != nil {
			it.started()
			it.started = nil // fires once, even across re-homes
		}
		p.running.Add(1)
		dispatched := time.Now()
		res := n.Run(it.ctx, it.job)
		p.running.Add(-1)
		if tr != nil {
			// The dispatch span brackets the node round trip as the server
			// saw it; for a remote node, the gap between it and the worker's
			// execute span is transport plus worker-side queueing.
			tr.Record(it.job.Trace.Job, it.job.Trace.Parent, "dispatch", "sched",
				dispatched, time.Since(dispatched), map[string]string{
					"node": strconv.Itoa(n.ID()),
				})
		}
		p.spanDrops[n.ID()].Add(int64(res.SpanDrops))
		if errors.Is(res.Err, ErrNodeDown) && it.ctx.Err() == nil {
			// The transport died under the job, not the job under the node.
			// Re-home instead of delivering a failure: the cell is a
			// deterministic function of the job, so re-execution elsewhere
			// produces the identical result, and the WAL absorbs any
			// replayed row idempotently keyed on (sweep, index).
			it.rehomed = true
			if it.job.Trace != nil {
				// Bump the attempt on a fresh context copy so the job's next
				// home records spans under the new attempt number (the item
				// may be shared-read by metrics snapshots, never mutated).
				tc := *it.job.Trace
				tc.Attempt++
				it.job.Trace = &tc
				if tr != nil {
					tr.Record(tc.Job, tc.Parent, "re-home", "sched",
						time.Now(), 0, map[string]string{
							"from":    strconv.Itoa(n.ID()),
							"attempt": strconv.Itoa(tc.Attempt),
						})
				}
			}
			if p.place(it) {
				p.rehomed[n.ID()].Add(1)
				continue
			}
			res.Err = fmt.Errorf("%w: %v", ErrNoNodes, res.Err)
		}
		if res.Worker >= 0 {
			res.Worker = slot
		}
		if res.Attempts > 1 {
			p.retried.Add(int64(res.Attempts - 1))
		}
		if res.Quarantined {
			p.quarantined.Add(1)
		}
		p.busy.Add(int64(res.Latency))
		p.hist.Observe(res.Latency.Seconds())
		if res.Err != nil {
			p.failed.Add(1)
		} else {
			p.done.Add(1)
		}
		if it.deliver != nil {
			it.deliver(res)
		}
	}
}

// place puts an item — new, or re-homed off a dead node — onto a live
// partition round-robin; false when every partition has been evicted. The cursor is drawn once and the
// scan offsets from it locally — drawing per iteration would let concurrent
// placements advance the shared cursor between draws, revisiting an evicted
// partition while never trying a live one.
func (p *Pool) place(it item) bool {
	base := int(p.seq.Add(1) - 1)
	for i := 0; i < len(p.nodes); i++ {
		part := (base + i) % len(p.nodes)
		if p.q.push(part, it) {
			p.queued.Add(1)
			return true
		}
	}
	return false
}

// Start implements Runner: enqueue one job, blocking while the pool-wide
// queue is full, aborting on ctx. It returns ErrClosed after Close. deliver
// is called exactly once from a puller goroutine, including on failure and
// cancellation.
func (p *Pool) Start(ctx context.Context, job Job, started func(), deliver func(Result)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	select {
	case p.slots <- struct{}{}:
	default:
		// Full: wait outside the close lock so Close can't deadlock on us.
		p.mu.Unlock()
		select {
		case p.slots <- struct{}{}:
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				<-p.slots
				return ErrClosed
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Every partition evicted means the pool has no execution substrate left.
	if !p.place(item{job: job, ctx: ctx, started: started, deliver: deliver}) {
		p.mu.Unlock()
		<-p.slots // release the admission token
		return ErrNoNodes
	}
	p.mu.Unlock()
	return nil
}

// RunSweep is RunSweep over this pool.
func (p *Pool) RunSweep(ctx context.Context, jobs []Job) []Result {
	return RunSweep(ctx, p, jobs)
}

// Workers reports the pool's total execution slots.
func (p *Pool) Workers() int {
	total := 0
	for _, n := range p.nodes {
		total += n.Workers()
	}
	return total
}

// Nodes reports the node count.
func (p *Pool) Nodes() int { return len(p.nodes) }

// Steals reports how many jobs node id has stolen from sibling partitions.
func (p *Pool) Steals(id int) int64 { return p.steals[id].Load() }

// NodeInfos implements Runner: one row per node with the pool's work
// accounting, plus transport health and identity for nodes that can report
// them (shard.RemoteNode). The GET /v1/nodes federation is this, verbatim.
func (p *Pool) NodeInfos() []NodeInfo {
	infos := make([]NodeInfo, len(p.nodes))
	for i, n := range p.nodes {
		info := NodeInfo{
			ID:         i,
			Kind:       "local",
			Workers:    n.Workers(),
			Up:         true,
			QueueDepth: int64(p.q.depth(i)),
			Jobs:       p.pulled[i].Load(),
			Steals:     p.steals[i].Load(),
			Rehomed:    p.rehomed[i].Load(),
			SpanDrops:  p.spanDrops[i].Load(),
		}
		if hr, ok := n.(healthReporter); ok {
			h := hr.Health()
			info.Kind = "remote"
			info.Up = h.Connected
			info.Dead = h.Dead
			info.HeartbeatRTTMS = float64(h.LastRTT) / float64(time.Millisecond)
			info.Reconnects = h.Reconnects
			info.HeartbeatMisses = h.HeartbeatMisses
			info.ClockOffsetUS = h.ClockOffsetUS
		}
		if named, ok := n.(interface{ Name() string }); ok {
			info.Name = named.Name()
		}
		infos[i] = info
	}
	return infos
}

// Close stops intake, drains queued jobs, waits for the pullers, and shuts
// the nodes down.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.q.close()
	p.wg.Wait()
	for _, n := range p.nodes {
		n.Close()
	}
}

// Stats is a snapshot of the pool counters, served by /metrics.
type Stats struct {
	Workers     int                   `json:"workers"`
	Queued      int64                 `json:"queued"`
	Running     int64                 `json:"running"`
	Done        int64                 `json:"done"`
	Failed      int64                 `json:"failed"`
	Retried     int64                 `json:"retried"`     // attempts beyond each job's first
	Quarantined int64                 `json:"quarantined"` // jobs that exhausted every attempt
	Utilization float64               `json:"utilization"` // busy slot-time / available slot-time since start
	Latency     obs.HistogramSnapshot `json:"latency"`     // wall-clock job latency, seconds
}

// Stats implements Runner: a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	elapsed := time.Since(p.start)
	util := 0.0
	if w := p.Workers(); w > 0 && elapsed > 0 {
		util = float64(p.busy.Load()) / (float64(elapsed) * float64(w))
	}
	queued := p.queued.Load()
	if queued < 0 { // transient submit/drain race on the gauge
		queued = 0
	}
	return Stats{
		Workers:     p.Workers(),
		Queued:      queued,
		Running:     p.running.Load(),
		Done:        p.done.Load(),
		Failed:      p.failed.Load(),
		Retried:     p.retried.Load(),
		Quarantined: p.quarantined.Load(),
		Utilization: util,
		Latency:     p.hist.Snapshot(),
	}
}

// RegisterMetrics implements Runner: the greenweb_fleet_* family plus the
// per-node greenweb_shard_* family — steal and job counters, partition
// depths, and transport health for remote nodes. Values are read from the
// pool's own atomics at scrape time. Register on a per-server registry (not
// obs.Default) so multiple pools in one process (tests) do not fight over
// sources.
func (p *Pool) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("greenweb_fleet_workers",
		"Total execution slots across all nodes", func() float64 { return float64(p.Workers()) })
	reg.GaugeFunc("greenweb_fleet_queue_depth",
		"Jobs waiting across all partitions", func() float64 { return float64(p.Stats().Queued) })
	reg.GaugeFunc("greenweb_fleet_running_jobs",
		"Jobs executing right now", func() float64 { return float64(p.running.Load()) })
	reg.CounterFunc("greenweb_fleet_jobs_done_total",
		"Jobs finished successfully", func() float64 { return float64(p.done.Load()) })
	reg.CounterFunc("greenweb_fleet_jobs_failed_total",
		"Jobs that ended in failure (including cancellation)", func() float64 { return float64(p.failed.Load()) })
	reg.CounterFunc("greenweb_fleet_retries_total",
		"Job attempts beyond each job's first", func() float64 { return float64(p.retried.Load()) })
	reg.CounterFunc("greenweb_fleet_quarantines_total",
		"Jobs that exhausted every allowed attempt", func() float64 { return float64(p.quarantined.Load()) })
	reg.CounterFunc("greenweb_fleet_span_drops_total",
		"Trace spans discarded to per-job span budgets", func() float64 {
			var total int64
			for i := range p.spanDrops {
				total += p.spanDrops[i].Load()
			}
			return float64(total)
		})
	reg.GaugeFunc("greenweb_fleet_utilization",
		"Busy slot-time over available slot-time since start", func() float64 { return p.Stats().Utilization })
	reg.AttachHistogram("greenweb_fleet_job_latency_seconds",
		"Wall-clock job latency in seconds (all attempts incl. backoff)", p.hist)

	reg.GaugeFunc("greenweb_shard_nodes", "Nodes in the pool",
		func() float64 { return float64(len(p.nodes)) })
	stealVec := reg.CounterVec("greenweb_shard_steals_total",
		"Jobs a node stole from sibling partitions", "node")
	jobsVec := reg.CounterVec("greenweb_shard_node_jobs_total",
		"Jobs executed per node (home pops + steals)", "node")
	depthVec := reg.GaugeVec("greenweb_shard_partition_depth",
		"Jobs waiting in each partition", "partition")
	rehomeVec := reg.CounterVec("greenweb_shard_rehomed_jobs_total",
		"Jobs re-homed off each node (queued at eviction plus in-flight at death)", "node")
	dropVec := reg.CounterVec("greenweb_shard_span_drops_total",
		"Trace spans each node's jobs dropped to budget pressure", "node")
	for i := range p.nodes {
		i := i
		label := strconv.Itoa(i)
		stealVec.Func(func() float64 { return float64(p.steals[i].Load()) }, label)
		jobsVec.Func(func() float64 { return float64(p.pulled[i].Load()) }, label)
		depthVec.Func(func() float64 { return float64(p.q.depth(i)) }, label)
		rehomeVec.Func(func() float64 { return float64(p.rehomed[i].Load()) }, label)
		dropVec.Func(func() float64 { return float64(p.spanDrops[i].Load()) }, label)
	}
	reg.CounterFunc("greenweb_shard_evictions_total",
		"Nodes evicted after being declared dead",
		func() float64 { return float64(p.evictions.Load()) })

	// Remote nodes expose transport health; local nodes have none to report.
	var upVec, rttVec *obs.GaugeVec
	var reconnVec, missVec *obs.CounterVec
	for i, n := range p.nodes {
		hr, ok := n.(healthReporter)
		if !ok {
			continue
		}
		if upVec == nil {
			upVec = reg.GaugeVec("greenweb_shard_node_up",
				"1 while the node's transport session is connected", "node")
			rttVec = reg.GaugeVec("greenweb_shard_heartbeat_rtt_seconds",
				"Most recent heartbeat round-trip time per node", "node")
			reconnVec = reg.CounterVec("greenweb_shard_reconnects_total",
				"Transport re-dial attempts per node", "node")
			missVec = reg.CounterVec("greenweb_shard_heartbeat_misses_total",
				"Heartbeats that went unanswered past the timeout", "node")
		}
		label := strconv.Itoa(i)
		upVec.Func(func() float64 {
			if h := hr.Health(); h.Connected {
				return 1
			}
			return 0
		}, label)
		rttVec.Func(func() float64 { return hr.Health().LastRTT.Seconds() }, label)
		reconnVec.Func(func() float64 { return float64(hr.Health().Reconnects) }, label)
		missVec.Func(func() float64 { return float64(hr.Health().HeartbeatMisses) }, label)
	}
}
