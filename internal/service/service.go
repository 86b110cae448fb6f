package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/simerr"
)

// Submission refusals. The HTTP layer maps ErrQueueFull and ErrRateLimited
// to 429 and ErrDraining to 503, each with a Retry-After hint (see
// RetryAfterError): 429 means "back off briefly and retry here", 503 means
// "this daemon is going away — go elsewhere".
var (
	// ErrQueueFull means the bounded job queue is at capacity (or past its
	// high-water mark for best-effort work).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining means the daemon is shutting down and no longer accepts
	// jobs; in-flight and queued work still completes.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrInvalidSpec wraps every submission rejected for a malformed
	// campaign spec — the typed 400, distinct from capacity refusals.
	ErrInvalidSpec = errors.New("service: invalid campaign spec")
)

// Config sizes the daemon.
type Config struct {
	// Workers is the cell-execution pool size (0 = GOMAXPROCS). It bounds
	// detailed simulations in flight across all jobs.
	Workers int
	// QueueDepth bounds jobs queued behind the active set (0 = 64).
	QueueDepth int
	// HighWater is the queue depth above which best-effort submissions
	// (Priority < 0) are shed before the queue is even full (0 = 3/4 of
	// QueueDepth). Normal and elevated work still fills to QueueDepth.
	HighWater int
	// MaxActiveJobs bounds campaigns expanded and executing concurrently
	// (0 = 4). Cells from active jobs interleave on the worker pool.
	MaxActiveJobs int
	// MaxCellsPerJob rejects degenerate grids at submission (0 = 4096).
	MaxCellsPerJob int
	// TenantRate is each tenant's sustained submission budget in jobs per
	// second (0 = unlimited); TenantBurst is the bucket capacity (0 = 4).
	// One greedy tenant drains only its own bucket.
	TenantRate  float64
	TenantBurst int
	// BreakerThreshold is how many consecutive recovered simulator panics
	// trip the circuit breaker into degraded, cached-only mode (0 = 5,
	// negative = disabled). BreakerCooldown is how long it stays open
	// before a half-open probe (0 = 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DefaultOptions supplies windows for specs that omit them and the
	// failure handling (timeout, retries) for every run. Zero windows mean
	// experiments.DefaultOptions.
	DefaultOptions experiments.Options
	// CheckpointDir, when set, persists every finished run so a restarted
	// daemon answers repeat traffic from disk.
	CheckpointDir string
	// JournalDir, when set, write-ahead-logs every job lifecycle
	// transition to an append-only NDJSON journal. On startup the journal
	// is replayed: jobs submitted but never finished are re-enqueued under
	// their original IDs, so a kill -9 mid-campaign resumes instead of
	// vanishing. Pair it with CheckpointDir so the resumed job's already-
	// finished cells are served from disk rather than re-simulated.
	JournalDir string
	// TraceBudgetBytes bounds, per window-geometry runner, the bytes of
	// predecoded window traces and snapshots the sampled path keeps
	// resident, evicting whole plans LRU-first (0 = unbounded). Exported
	// live through the pubsd_trace_resident_bytes gauge.
	TraceBudgetBytes int64
	// NodeID is the daemon's stable identity in a cluster — the `node`
	// label on every metric it exports ("" = "local"). It must be unique
	// and stable across restarts within one cluster: the consistent-hash
	// ring shards by it, so a node that rejoins under its old ID takes
	// back exactly the cells it owned.
	NodeID string
	// Remote, when set, is the cluster fabric's remote-execution seam: the
	// dispatcher offers every cell to it (inside the singleflight critical
	// section, so each unique cell is offered once) before falling back to
	// the local worker pool. See RemoteFunc.
	Remote RemoteFunc
	// RemoteSweep, when set alongside Remote, dispatches window-major
	// sampled jobs as one batch per (workload, owner node) instead of one
	// request per cell, keeping each worker's predecoded trace hot across
	// its whole machine group. See RemoteSweepFunc.
	RemoteSweep RemoteSweepFunc
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.HighWater <= 0 || c.HighWater > c.QueueDepth {
		c.HighWater = c.QueueDepth * 3 / 4
		if c.HighWater < 1 {
			c.HighWater = 1
		}
	}
	if c.MaxActiveJobs <= 0 {
		c.MaxActiveJobs = 4
	}
	if c.MaxCellsPerJob <= 0 {
		c.MaxCellsPerJob = 4096
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.DefaultOptions.Warmup == 0 && c.DefaultOptions.Measure == 0 {
		c.DefaultOptions = experiments.DefaultOptions()
	}
	c.DefaultOptions.Parallelism = c.Workers
	c.DefaultOptions.TraceBudgetBytes = c.TraceBudgetBytes
	if c.NodeID == "" {
		c.NodeID = "local"
	}
	return c
}

// task is work scheduled onto the worker pool: one cell of one job, or —
// for window-major sampled jobs — one workload's whole machine sweep
// (group lists the cell indices; idx is unused then).
type task struct {
	job   *Job
	idx   int
	group []int
}

// Service is the campaign daemon: a bounded, priority-ordered job queue
// feeding a dispatcher that shards each job's grid across a fixed worker
// pool, with results landing in the content-addressed cache. Admission
// control (per-tenant token buckets, high-water shedding, a circuit
// breaker around the simulator) keeps it degrading gracefully instead of
// failing open, and the optional journal makes accepted work survive a
// crash.
type Service struct {
	cfg     Config
	cache   *resultCache
	m       *metrics
	limiter *tenantLimiter
	brk     *breaker
	jl      *journal

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	runners  map[windowKey]*experiments.Runner
	draining bool
	seq      uint64

	// plans is the cluster plan-exchange state: the fetch/push seams and
	// the replica cache of proactively pushed plans (see plans.go).
	plans planExchange

	q     *jobQueue
	tasks chan task

	rootCtx context.Context
	cancel  context.CancelFunc

	jobWG    sync.WaitGroup // submitted jobs not yet finalized
	workerWG sync.WaitGroup
	dispWG   sync.WaitGroup
}

// windowKey distinguishes runners by simulation window — including the
// sampling geometry, so sampled and contiguous jobs (and different sampled
// geometries) get separate runners and snapshot stores — plus the decode
// and scheduling modes, which are fixed per runner even though they never
// change results; every other option is shared daemon-wide.
type windowKey struct {
	warmup, measure uint64
	windows         int
	fastForward     uint64
	parallelWindows int
	liveDecode      bool
	windowMajor     bool
}

func keyFor(o experiments.Options) windowKey {
	return windowKey{
		warmup: o.Warmup, measure: o.Measure,
		windows: o.SampleWindows, fastForward: o.SampleFastForward,
		parallelWindows: o.ParallelWindows,
		liveDecode:      o.LiveDecode,
		windowMajor:     o.WindowMajor,
	}
}

// New builds and starts a daemon: workers and dispatcher run until
// Shutdown. With Config.JournalDir set, it first replays the journal and
// re-enqueues every campaign a previous process accepted but never
// finished.
func New(cfg Config) (*Service, error) {
	cfg = cfg.normalized()
	s := &Service{
		cfg:     cfg,
		cache:   newResultCache(),
		m:       newMetrics(),
		limiter: newTenantLimiter(cfg.TenantRate, cfg.TenantBurst),
		brk:     newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		jobs:    make(map[string]*Job),
		runners: make(map[windowKey]*experiments.Runner),
		q:       newJobQueue(),
		tasks:   make(chan task, cfg.Workers*2),
	}
	s.plans.replicas = make(map[string][]sampling.Window)
	s.plans.encoded = make(map[string][]byte)
	s.plans.budget = cfg.TraceBudgetBytes

	// Recover the journal before opening it for appending: the compaction
	// rename must land before the append handle exists, or appends would
	// go to the unlinked pre-compaction inode.
	var recovered []recoveredJob
	if cfg.JournalDir != "" {
		var maxSeq uint64
		var err error
		recovered, maxSeq, err = readJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		if err := compactJournal(cfg.JournalDir, recovered); err != nil {
			return nil, fmt.Errorf("service: journal compact: %w", err)
		}
		s.jl, err = openJournal(cfg.JournalDir, &s.m.journalRecords, &s.m.journalErrors)
		if err != nil {
			return nil, err
		}
		s.seq = maxSeq
	}

	// Fail fast on an unusable checkpoint directory.
	if cfg.CheckpointDir != "" {
		if _, err := s.runnerFor(cfg.DefaultOptions); err != nil {
			return nil, err
		}
	}
	s.rootCtx, s.cancel = context.WithCancel(context.Background())

	// Re-enqueue recovered campaigns under their original IDs before the
	// pool starts, bypassing admission control: this work was already
	// admitted once. Specs that no longer validate (a workload or machine
	// removed across the restart) are journaled failed, not resurrected.
	for _, rj := range recovered {
		cells, err := rj.Spec.Cells(cfg.MaxCellsPerJob)
		if err == nil {
			_, err = s.runnerFor(rj.Spec.options(cfg.DefaultOptions))
		}
		job := newJob(rj.ID, rj.Spec, cells, rj.Spec.options(cfg.DefaultOptions), s.jl)
		s.jobs[rj.ID] = job
		s.order = append(s.order, rj.ID)
		if err != nil {
			job.fail(fmt.Errorf("service: journal recovery: %w", err))
			continue
		}
		s.jobWG.Add(1)
		s.q.push(job)
		s.m.jobsRecovered.Add(1)
	}

	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.dispWG.Add(1)
	go s.dispatch()
	return s, nil
}

// runnerFor returns (creating on demand) the runner for a window pair.
// All runners share the worker pool's parallelism bound, the circuit
// breaker, and, when configured, the same checkpoint directory — keys
// embed the windows, so the records never collide.
func (s *Service) runnerFor(o experiments.Options) (*experiments.Runner, error) {
	k := keyFor(o)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runners[k]; ok {
		return r, nil
	}
	// Every runner feeds the daemon-wide replay-latency histogram and is
	// gated by the daemon-wide breaker. The plan seams are bound to the
	// Service methods, not the current hooks: SetPlanExchange may be called
	// after runners exist (the cluster worker attaches post-New), and the
	// methods read the live hooks on every miss.
	o.WindowObserve = s.m.observeWindow
	o.PlanSource = s.planSource
	o.PlanPlanned = s.planPlanned
	r := experiments.NewRunner(o).WithAdmit(s.admitSim)
	if s.cfg.CheckpointDir != "" {
		var err error
		if r, err = r.WithCheckpoint(s.cfg.CheckpointDir); err != nil {
			return nil, err
		}
	}
	s.runners[k] = r
	return r, nil
}

// admitSim is the experiments.AdmitFunc every runner shares: it consults
// the circuit breaker immediately before a detailed simulation would
// execute (memo and checkpoint hits never reach it — that is what makes
// the open state a cached-only mode rather than an outage) and feeds the
// attempt's outcome back.
func (s *Service) admitSim() (func(error), error) {
	if err := s.brk.Allow(); err != nil {
		s.m.degradedCells.Add(1)
		return nil, err
	}
	return s.brk.Record, nil
}

// Submit validates a spec and runs it through admission control: draining
// refuses outright (503), the tenant's token bucket may refuse with a
// backoff hint (429), and the bounded queue refuses — or sheds a queued
// lower-priority job to make room — when saturated (429). It never
// blocks.
func (s *Service) Submit(spec CampaignSpec) (*Job, error) {
	cells, err := spec.Cells(s.cfg.MaxCellsPerJob)
	if err != nil {
		s.m.jobsRejected.Add(1)
		return nil, fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	opts := spec.options(s.cfg.DefaultOptions)
	if _, err := s.runnerFor(opts); err != nil {
		s.m.jobsRejected.Add(1)
		return nil, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.jobsRejected.Add(1)
		return nil, retryAfter(ErrDraining, 30*time.Second)
	}
	if ok, wait := s.limiter.take(spec.Tenant); !ok {
		s.mu.Unlock()
		s.m.jobsRejected.Add(1)
		s.m.rateLimited.Add(1)
		return nil, retryAfter(ErrRateLimited, wait)
	}

	depth := s.q.depth()
	var victim *Job
	switch {
	case depth >= s.cfg.QueueDepth:
		// Full: evict the lowest-priority queued job if the newcomer
		// outranks it; otherwise refuse with a depth-aware hint.
		victim = s.q.shedLowest(spec.Priority)
		if victim == nil {
			s.mu.Unlock()
			s.m.jobsRejected.Add(1)
			return nil, retryAfter(ErrQueueFull, s.retryHint(depth))
		}
	case depth >= s.cfg.HighWater && spec.Priority < 0:
		// Above the high-water mark best-effort work is shed first, so
		// the remaining headroom is reserved for normal-and-up traffic.
		s.mu.Unlock()
		s.m.jobsRejected.Add(1)
		s.m.jobsShed.Add(1)
		return nil, retryAfter(fmt.Errorf("%w: %w above high-water mark", ErrQueueFull, simerr.ErrOverload), s.retryHint(depth))
	}

	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	job := newJob(id, spec, cells, opts, s.jl)
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.jobWG.Add(1)
	// Journal the acceptance before it becomes runnable: once Submit
	// returns, a crash must not lose the job.
	specCopy := spec
	s.jl.append(journalRecord{Type: "submit", Job: id, Spec: &specCopy})
	s.q.push(job)
	if victim != nil {
		victim.fail(fmt.Errorf("service: %w: evicted from a full queue by higher-priority job %s", simerr.ErrOverload, id))
		s.m.jobsShed.Add(1)
		s.jobWG.Done()
	}
	s.mu.Unlock()
	s.m.jobsSubmitted.Add(1)
	return job, nil
}

// retryHint estimates how long a refused client should back off: the
// queue's drain time at the current depth, gauged by the median job
// latency over the active-job parallelism, clamped to [1s, 60s].
func (s *Service) retryHint(depth int) time.Duration {
	p50 := time.Duration(s.m.latencyQuantileMS(0.5)) * time.Millisecond
	if p50 <= 0 {
		p50 = time.Second
	}
	hint := p50 * time.Duration(depth) / time.Duration(s.cfg.MaxActiveJobs)
	if hint < time.Second {
		hint = time.Second
	}
	if hint > time.Minute {
		hint = time.Minute
	}
	return hint
}

// Job looks a job up by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobStatuses snapshots every job in submission order.
func (s *Service) JobStatuses() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.Job(id); ok {
			out = append(out, j.Status())
		}
	}
	return out
}

// Result returns a completed cell by content key.
func (s *Service) Result(key string) (CellResult, bool) { return s.cache.Get(key) }

// dispatch pulls queued jobs (highest priority first) and runs each on its
// own goroutine, at most MaxActiveJobs at a time. Concurrent active jobs
// are what give the singleflight layer work: two identical campaigns in
// flight share every cell execution.
func (s *Service) dispatch() {
	defer s.dispWG.Done()
	sem := make(chan struct{}, s.cfg.MaxActiveJobs)
	for {
		job, ok := s.q.pop()
		if !ok {
			return
		}
		sem <- struct{}{}
		go func(j *Job) {
			defer func() { <-sem }()
			s.runJob(j)
		}(job)
	}
}

// runJob expands a job onto the task channel and finalizes it when every
// cell reports back.
func (s *Service) runJob(j *Job) {
	defer s.jobWG.Done()
	s.m.activeJobs.Add(1)
	defer s.m.activeJobs.Add(-1)
	j.start()
	j.cellWG.Add(len(j.cells))
	// Window-major sampled jobs run as one sweep task per workload, unless
	// the cluster fabric takes cells only one at a time (Remote without
	// RemoteSweep); each worker daemon then re-applies window-major locally.
	grouped := j.opts.WindowMajor && j.opts.Sampled() &&
		(s.cfg.Remote == nil || s.cfg.RemoteSweep != nil)
	for _, t := range j.tasks(grouped) {
		select {
		case s.tasks <- t:
		case <-s.rootCtx.Done():
			// Forced shutdown mid-expansion: fail the remaining cells here;
			// cells already queued are failed by the workers.
			for _, i := range t.indices() {
				j.cellDone(i, CellResult{}, outcomeRun, s.rootCtx.Err())
			}
		}
	}
	j.cellWG.Wait()
	j.finalize()
	st := j.Status()
	if st.State == JobFailed {
		s.m.jobsFailed.Add(1)
	} else {
		s.m.jobsDone.Add(1)
	}
	s.m.observeLatency(j.latency())
}

// worker executes tasks until the task channel closes at shutdown. A
// panic escaping a task — a service-layer bug, or the chaos harness's
// ServicePanic point — is recovered here: the task's unreported cells
// fail typed, the breaker records the panic, and the pool keeps serving.
func (s *Service) worker() {
	defer s.workerWG.Done()
	for t := range s.tasks {
		s.m.workersBusy.Add(1)
		s.executeRecover(t)
		s.m.workersBusy.Add(-1)
	}
}

// executeRecover is the worker's panic bulkhead around one task.
func (s *Service) executeRecover(t task) {
	defer func() {
		if v := recover(); v != nil {
			perr := &simerr.PanicError{Value: v, Stack: debug.Stack()}
			s.brk.Record(perr)
			for _, i := range t.indices() {
				// Idempotent: only cells the panic cut short still count.
				s.m.cellsFailed.Add(1)
				t.job.cellDone(i, CellResult{}, outcomeRun, perr)
			}
		}
	}()
	s.execute(t)
}

// indices returns the cell indices a task covers.
func (t task) indices() []int {
	if t.group != nil {
		return t.group
	}
	return []int{t.idx}
}

// tasks shards the job for the worker pool: one task per cell, or, when
// grouped, one task per workload covering that workload's whole machine
// sweep.
func (j *Job) tasks(grouped bool) []task {
	if !grouped {
		out := make([]task, len(j.cells))
		for i := range j.cells {
			out[i] = task{job: j, idx: i}
		}
		return out
	}
	var out []task
	byWL := make(map[string]int) // workload -> index in out
	for i, c := range j.cells {
		k, ok := byWL[c.Workload]
		if !ok {
			k = len(out)
			byWL[c.Workload] = k
			out = append(out, task{job: j})
		}
		out[k].group = append(out[k].group, i)
	}
	return out
}

// execute runs one task — a cell, or a window-major sweep of cells.
func (s *Service) execute(t task) {
	if t.group != nil {
		s.executeSweepRemote(t)
		return
	}
	cell := t.job.cells[t.idx]
	if faultinject.Fire(faultinject.ServicePanic, cell.Workload) {
		panic(fmt.Sprintf("injected service worker panic on %s", cell.Workload))
	}
	if err := s.rootCtx.Err(); err != nil {
		t.job.cellDone(t.idx, CellResult{}, outcomeRun, err)
		s.m.cellsFailed.Add(1)
		return
	}
	runner, err := s.runnerFor(t.job.opts)
	if err != nil {
		t.job.cellDone(t.idx, CellResult{}, outcomeRun, err)
		s.m.cellsFailed.Add(1)
		return
	}
	opts := runner.Options()
	key := cell.Key(opts)
	// Progress streams to the job that triggered the execution; a merged
	// submission sees cell completions but not mid-cell progress.
	every := (opts.Warmup + opts.Measure) / 4
	ctx := pipeline.WithProgress(s.rootCtx, every, func(committed uint64) {
		t.job.progress(cell, key, committed)
	})
	res, outcome, err := s.cache.Do(key, func() (CellResult, error) {
		// Offer the cell to the cluster fabric first. Running inside the
		// singleflight critical section means the fabric sees each unique
		// content address at most once per coordinator — the cluster-wide
		// exactly-once contract rests on this ordering. A declined cell
		// (no live peers) falls through to the local runner unchanged.
		if s.cfg.Remote != nil {
			if spec, ok := t.job.remoteSpec(t.idx); ok {
				if rres, handled, rerr := s.cfg.Remote(ctx, RemoteCell{Key: key, Spec: spec}); handled {
					return rres, rerr
				}
			}
		}
		r, err := runner.RunCell(ctx, cell)
		if err != nil {
			return CellResult{}, err
		}
		return NewCellResult(cell, opts, r), nil
	})
	switch outcome {
	case outcomeHit:
		s.m.cacheHits.Add(1)
	case outcomeMerged:
		s.m.merged.Add(1)
	default:
		s.m.cacheMisses.Add(1)
	}
	if err != nil {
		s.m.cellsFailed.Add(1)
	} else {
		s.m.cellsCompleted.Add(1)
	}
	t.job.cellDone(t.idx, res, outcome, err)
}

// executeSweepRemote is the one sweep executor: it runs one workload's
// machine sweep, remote tier first. Every cell is first claimed in the
// singleflight table — hits land immediately, concurrent duplicates merge —
// so the owned remainder is the only work. With Config.RemoteSweep set,
// that remainder travels to the cluster as one batch sharing one plan key;
// whatever the fabric declines (no live peers, ring churn mid-batch), and
// everything on a plain daemon, runs as one local window-major sweep
// through the runner's batched scheduler, sharing one predecoded window set
// across every machine. Mid-cell progress events are not emitted (cells
// complete in window-major order).
func (s *Service) executeSweepRemote(t task) {
	j := t.job
	wl := j.cells[t.group[0]].Workload
	if faultinject.Fire(faultinject.ServicePanic, wl) {
		panic(fmt.Sprintf("injected service worker panic on %s", wl))
	}
	failAll := func(err error) {
		for _, i := range t.group {
			s.m.cellsFailed.Add(1)
			j.cellDone(i, CellResult{}, outcomeRun, err)
		}
	}
	if err := s.rootCtx.Err(); err != nil {
		failAll(err)
		return
	}
	runner, err := s.runnerFor(j.opts)
	if err != nil {
		failAll(err)
		return
	}
	opts := runner.Options()

	type ownedCell struct {
		idx  int
		key  string
		f    *flight
		done bool
	}
	var owned []*ownedCell
	var mergedIdx []int
	var mergedF []*flight
	var rcs []RemoteCell
	// A panic below must not leave owned flights unresolved — merged
	// waiters on other jobs would block forever. Resolve them with the
	// panic and re-raise for executeRecover's idempotent cell sweep.
	defer func() {
		if v := recover(); v != nil {
			perr := &simerr.PanicError{Value: v, Stack: debug.Stack()}
			for _, o := range owned {
				if !o.done {
					s.cache.Resolve(o.key, o.f, CellResult{}, perr)
				}
			}
			panic(v)
		}
	}()
	finish := func(o *ownedCell, res CellResult, err error) {
		o.done = true
		s.cache.Resolve(o.key, o.f, res, err)
		s.m.cacheMisses.Add(1)
		if err != nil {
			s.m.cellsFailed.Add(1)
		} else {
			s.m.cellsCompleted.Add(1)
		}
		j.cellDone(o.idx, res, outcomeRun, err)
	}

	for _, i := range t.group {
		key := j.cells[i].Key(opts)
		res, f, st := s.cache.Claim(key)
		switch st {
		case claimHit:
			s.m.cacheHits.Add(1)
			s.m.cellsCompleted.Add(1)
			j.cellDone(i, res, outcomeHit, nil)
		case claimMerged:
			mergedIdx = append(mergedIdx, i)
			mergedF = append(mergedF, f)
		default:
			o := &ownedCell{idx: i, key: key, f: f}
			owned = append(owned, o)
			if spec, ok := j.remoteSpec(i); ok && s.cfg.RemoteSweep != nil {
				rcs = append(rcs, RemoteCell{Key: key, Spec: spec})
			}
			// !ok (an unreconstructable recovered grid) leaves the cell to
			// the local sweep below.
		}
	}

	var remoteRes map[string]CellResult
	var remoteErrs map[string]error
	if len(rcs) > 0 {
		planKey, kerr := opts.PlanKey(wl)
		if kerr != nil {
			planKey = ""
		}
		if res, errs, handled := s.cfg.RemoteSweep(s.rootCtx, planKey, rcs); handled {
			remoteRes, remoteErrs = res, errs
		}
	}
	var local []*ownedCell
	for _, o := range owned {
		if res, ok := remoteRes[o.key]; ok {
			finish(o, res, nil)
		} else if rerr, ok := remoteErrs[o.key]; ok {
			finish(o, CellResult{}, rerr)
		} else {
			local = append(local, o)
		}
	}

	if len(local) > 0 {
		cfgs := make([]pipeline.Config, len(local))
		for k, o := range local {
			cfgs[k] = j.cells[o.idx].Config
		}
		results, serr := runner.RunSweepContext(s.rootCtx, cfgs, wl)
		var ce *experiments.CampaignError
		switch {
		case serr == nil || errors.As(serr, &ce):
			failed := make(map[string]error)
			if ce != nil {
				for _, f := range ce.Failures {
					failed[f.Config] = f
				}
			}
			for k, o := range local {
				cell := j.cells[o.idx]
				if ferr, ok := failed[cell.Config.Name]; ok {
					finish(o, CellResult{}, ferr)
					continue
				}
				finish(o, NewCellResult(cell, opts, results[k]), nil)
			}
		default:
			for _, o := range local {
				finish(o, CellResult{}, serr)
			}
		}
	}

	// Merged waiters last: their flights belong to other tasks and may
	// resolve at any time; everything this task owned is settled above.
	for k, i := range mergedIdx {
		f := mergedF[k]
		<-f.done
		s.m.merged.Add(1)
		if f.err != nil {
			s.m.cellsFailed.Add(1)
		} else {
			s.m.cellsCompleted.Add(1)
		}
		j.cellDone(i, f.res, outcomeMerged, f.err)
	}
}

// runnerStats sums the campaign and snapshot counters across all runners.
func (s *Service) runnerStats() (experiments.RunnerStats, sampling.StoreStats) {
	s.mu.Lock()
	runners := make([]*experiments.Runner, 0, len(s.runners))
	for _, r := range s.runners {
		runners = append(runners, r)
	}
	s.mu.Unlock()
	var sum experiments.RunnerStats
	var snaps sampling.StoreStats
	for _, r := range runners {
		st := r.Stats()
		sum.Simulated += st.Simulated
		sum.MemoHits += st.MemoHits
		sum.CheckpointHits += st.CheckpointHits
		sum.Retries += st.Retries
		sum.Failures += st.Failures
		sum.CheckpointErrors += st.CheckpointErrors
		ss := r.SnapshotStats()
		snaps.Plans += ss.Plans
		snaps.PeerPlans += ss.PeerPlans
		snaps.Hits += ss.Hits
		snaps.Evictions += ss.Evictions
		snaps.ResidentBytes += ss.ResidentBytes
		snaps.ResidentPlans += ss.ResidentPlans
	}
	return sum, snaps
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Health is the /healthz document: overall status plus the degraded-mode
// detail. Status is "ok", "degraded" (circuit breaker not closed — cached
// results serve, fresh simulation is refused or probing), or "draining".
type Health struct {
	Status        string `json:"status"`
	Breaker       string `json:"breaker"`
	BreakerTrips  uint64 `json:"breaker_trips,omitempty"`
	RecoveredJobs uint64 `json:"recovered_jobs,omitempty"`
}

// Health snapshots the daemon's health.
func (s *Service) Health() Health {
	state, trips := s.brk.State()
	h := Health{
		Status:        "ok",
		Breaker:       breakerStateString(state),
		BreakerTrips:  trips,
		RecoveredJobs: s.m.jobsRecovered.Load(),
	}
	if state != breakerClosed {
		h.Status = "degraded"
	}
	if s.Draining() {
		h.Status = "draining"
	}
	return h
}

// Shutdown drains the daemon: submissions are refused immediately, every
// accepted job (queued or active) runs to completion, then the pool stops.
// If ctx expires first, in-flight simulations are canceled — they fail
// with the cancellation and their jobs finalize as failed — and Shutdown
// returns the context's error after the pool exits. Safe to call once.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: already shut down")
	}
	s.draining = true
	s.q.close()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // abort in-flight simulations (observed within ~1K cycles)
		<-drained
	}
	s.dispWG.Wait()
	close(s.tasks)
	s.workerWG.Wait()
	s.cancel()
	s.jl.close()
	return err
}

// Workers returns the worker-pool size.
func (s *Service) Workers() int { return s.cfg.Workers }

// QueueDepth returns the number of jobs currently queued (not yet active).
func (s *Service) QueueDepth() int { return s.q.depth() }

// DefaultOptions returns the daemon's default (normalized) run options.
func (s *Service) DefaultOptions() experiments.Options { return s.cfg.DefaultOptions }

// MetricsText renders the /metrics document.
func (s *Service) MetricsText() string {
	rs, snaps := s.runnerStats()
	brkState, brkTrips := s.brk.State()
	replicas, replicaBytes := s.planGauges()
	return s.m.render(s.cfg.NodeID, snapshotGauges{
		queueDepth:       s.QueueDepth(),
		workers:          s.cfg.Workers,
		cacheEntries:     s.cache.Len(),
		simulated:        rs.Simulated,
		memoHits:         rs.MemoHits,
		ckptHits:         rs.CheckpointHits,
		retries:          rs.Retries,
		snapPlans:        snaps.Plans,
		snapPeerPlans:    snaps.PeerPlans,
		snapHits:         snaps.Hits,
		snapEvictions:    snaps.Evictions,
		traceResident:    snaps.ResidentBytes,
		traceBudget:      s.cfg.TraceBudgetBytes,
		planReplicas:     replicas,
		planReplicaBytes: replicaBytes,
		draining:         s.Draining(),
		breakerState:     brkState,
		breakerTrips:     brkTrips,
	})
}

// Uptime reports how long the daemon has been serving.
func (s *Service) Uptime() time.Duration { return time.Since(s.m.start) }
