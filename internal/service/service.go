package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"mobic/internal/cache"
	"mobic/internal/experiment"
	"mobic/internal/fair"
	"mobic/internal/obs"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is returned by Submit when the bounded queue cannot
	// accept another job; callers should retry after backing off (429).
	ErrQueueFull = errors.New("service: queue full")
	// ErrShuttingDown is returned by Submit once Shutdown began (503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrJobPanicked tags executor panics caught by the worker's recover;
	// the panic value and stack are preserved in the job's error.
	ErrJobPanicked = errors.New("service: job panicked")
)

// ExecuteFunc runs one job spec; the default is JobSpec.run on the real
// simulator. Tests and benchmarks substitute stubs. The runner passed in
// carries the service-wide defaults plus, for sweep jobs, the
// checkpoint/resume wiring (StartCell, Resume, Checkpoint).
type ExecuteFunc func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error)

// RetryPolicy caps how often a failing job is re-executed. Attempt counts
// are journaled, so they survive daemon restarts.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions a job may consume,
	// the first run included. <= 1 disables retries: any failure is
	// terminal StateFailed. With MaxAttempts > 1, a job whose last
	// allowed attempt also fails is quarantined as StatePoisoned.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 500 ms).
	// It doubles per failed attempt, is capped at MaxDelay (default
	// 30 s), and gets ±25% jitter so a burst of failures doesn't
	// re-converge on the queue in lockstep.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff.
	MaxDelay time.Duration
}

// backoff returns the jittered delay before retrying after the given
// failed attempt (1-based).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Full-jitter would lose the floor; ±25% keeps ordering roughly fair.
	jitter := 0.75 + 0.5*rand.Float64()
	return time.Duration(float64(d) * jitter)
}

// Config parameterizes a Service.
type Config struct {
	// QueueCapacity bounds the number of queued (not yet running) jobs;
	// beyond it Submit sheds load with ErrQueueFull. Default 64.
	QueueCapacity int
	// Workers is the number of jobs executed concurrently. Each job
	// parallelizes internally via Runner.Workers, so the default is a
	// deliberately small 2.
	Workers int
	// TTL is how long terminal jobs stay queryable. Default 15 min.
	TTL time.Duration
	// EvictEvery is the janitor period. Default 1 min.
	EvictEvery time.Duration
	// Runner is the base experiment runner jobs start from (its Seeds,
	// BaseSeed and Mutate act as service-wide defaults).
	Runner experiment.Runner
	// Execute overrides job execution (stub point for tests/benchmarks).
	Execute ExecuteFunc
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// DataDir, when non-empty, enables the durability layer: Open
	// journals every job lifecycle transition to an fsync'd write-ahead
	// log under this directory, replays it on boot, re-enqueues jobs
	// that were queued or running at crash time, and resumes sweeps from
	// their last completed-cell checkpoint. Empty keeps the original
	// purely in-memory mode.
	DataDir string
	// Retry governs re-execution of failed attempts. The zero value
	// disables retries (MaxAttempts 1).
	Retry RetryPolicy
	// CompactBytes triggers journal compaction from the janitor once the
	// WAL grows past this size (default 8 MiB; only with DataDir).
	CompactBytes int64
	// Obs receives engine and sweep telemetry from every job this service
	// runs (threaded through experiment.Runner into each simulation).
	// Defaults to obs.Nop; mobicd installs an obs.Registry and merges its
	// families into /metrics.
	Obs obs.Recorder
	// Cache, when non-nil, enables the content-addressed result layer:
	// submissions are keyed by JobSpec.Digest, a digest already cached
	// returns a finished job immediately, concurrent identical submissions
	// collapse onto one in-flight job, and every successful output is
	// published back under its digest. Determinism makes this sound — the
	// cached value IS the result of that spec (see DESIGN.md S28).
	Cache *cache.Cache
	// WrapWAL, when non-nil, intercepts the journal's file handle — the
	// chaos harness installs a fault injector here to exercise torn writes
	// and fsync failures without the service importing it.
	WrapWAL func(WALFile) WALFile
	// Tenants is the multi-tenant admission policy: per-tenant weights,
	// priorities, quotas and rate limits, plus the credential mapping
	// (API keys and X-Mobic-Tenant names). Nil runs the single default
	// tenant with no per-tenant limits — exactly the pre-multi-tenancy
	// behavior.
	Tenants *fair.Registry
}

func (c Config) withDefaults() Config {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Runner.Workers <= 0 {
		// Split cores across concurrent jobs rather than letting every
		// job's cell pool oversubscribe the machine.
		c.Runner.Workers = max(1, runtime.GOMAXPROCS(0)/c.Workers)
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	if c.EvictEvery <= 0 {
		c.EvictEvery = time.Minute
	}
	if c.Execute == nil {
		c.Execute = func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
			return spec.run(ctx, base, progress)
		}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 1
	}
	if c.Retry.BaseDelay <= 0 {
		c.Retry.BaseDelay = 500 * time.Millisecond
	}
	if c.Retry.MaxDelay <= 0 {
		c.Retry.MaxDelay = 30 * time.Second
	}
	if c.CompactBytes <= 0 {
		c.CompactBytes = 8 << 20
	}
	if c.Obs == nil {
		c.Obs = obs.Nop{}
	}
	if c.Runner.Obs == nil {
		c.Runner.Obs = c.Obs
	}
	if c.Tenants == nil {
		c.Tenants = fair.DefaultRegistry()
	}
	return c
}

// Service is the simulation-as-a-service backend: a bounded FIFO queue, a
// worker pool over experiment.Runner, a TTL-evicted job store and, with
// Config.DataDir set, a write-ahead journal that makes all of it survive a
// crash.
type Service struct {
	cfg      Config
	store    *Store
	queue    *fair.Queue[*Job] // per-tenant WFQ sub-queues (see internal/fair)
	metrics  *Metrics
	tset     *obs.TenantSet // per-tenant admitted/shed/queued/running/done families
	journal  *Journal
	flights  *cache.Flight // digest -> in-flight leader job (Cache mode)
	repl     *replicator   // checkpoint streaming to ring successors
	replicas *ReplicaStore // checkpoint replicas received from ring predecessors

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workersWG  chan struct{} // closed when all workers exited
	janitorWG  chan struct{} // closed when the janitor exited
	retryWG    chan struct{} // 0-counter signal; see retryDone
	retryN     chan int      // serialized retry-goroutine counter
	draining   chan struct{} // closed when Shutdown begins

	submitMu  chan struct{} // 1-token semaphore guarding closed+enqueue
	closed    bool
	recovered int

	// compactMu makes journal compaction atomic with respect to the
	// append+update pairs that make a record durable and then reflect it
	// in the store. Writers of state (SubmitKey, journalApply) hold the
	// read side across both steps; the janitor holds the write side
	// across snapshot-and-swap. Without it, a snapshot taken between an
	// fsync'd Append and its store update misses the record, and the
	// rewrite erases a durably acknowledged job from the WAL.
	compactMu sync.RWMutex
}

// New builds an in-memory Service; call Start before submitting. For the
// durable, journal-backed mode use Open.
func New(cfg Config) *Service {
	return newService(cfg.withDefaults())
}

func newService(cfg Config) *Service {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		store:      NewStore(cfg.TTL),
		queue:      fair.NewQueue[*Job](cfg.Tenants, cfg.QueueCapacity, cfg.Clock),
		metrics:    NewMetrics(),
		tset:       obs.NewTenantSet(),
		flights:    cache.NewFlight(),
		repl:       newReplicator(cfg.Obs),
		replicas:   newReplicaStore(0, cfg.Obs),
		baseCtx:    ctx,
		baseCancel: cancel,
		workersWG:  make(chan struct{}),
		janitorWG:  make(chan struct{}),
		retryN:     make(chan int, 1),
		draining:   make(chan struct{}),
		submitMu:   make(chan struct{}, 1),
	}
	s.retryN <- 0
	return s
}

// Open builds a Service and, when cfg.DataDir is set, replays its journal:
// torn tails are truncated, jobs that already finished are restored as
// queryable terminal jobs (TTL permitting), and jobs that were queued or
// running when the previous process died are re-enqueued — sweeps resume
// from their last completed-cell checkpoint, so the recovered run's output
// is identical to an uninterrupted one. Call Start afterwards.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := newService(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	j, recs, err := openJournal(cfg.DataDir, cfg.WrapWAL)
	if err != nil {
		return nil, err
	}
	s.journal = j
	pending := s.restore(recs)
	// Boot compaction: rewrite the WAL from the restored state, dropping
	// records of expired jobs and whatever the torn-tail truncation left.
	if err := j.Compact(s.snapshotRecords()); err != nil {
		return nil, err
	}
	// Recovered jobs re-enter through Requeue, which bypasses quotas and
	// rate limits (they were admitted once already) and may exceed the
	// queue bound; Submit still sheds against cfg.QueueCapacity, so
	// backpressure semantics are unchanged.
	for _, job := range pending {
		s.queue.Requeue(job.tenant, job)
		s.tenantCounters(job.tenant).Queued.Add(1)
	}
	s.recovered = len(pending)
	return s, nil
}

// restore folds replayed records into store state and returns the
// non-terminal jobs to re-enqueue, in submission order.
//
// It also re-seeds the observability counters and the Retry-After EWMA
// from the replayed log: a freshly booted daemon whose store holds N jobs
// must not report zero submissions on /metrics, and its 429 Retry-After
// hint must extrapolate from the journaled durations of jobs that finished
// before the crash rather than restarting blind at the 1 s floor. Jobs
// whose TTL expired while the daemon was down are dropped without touching
// any counter, so /metrics stays consistent with store contents.
func (s *Service) restore(recs []record) []*Job {
	now := s.cfg.Clock()
	jobs := make(map[string]*Job)
	var order []*Job
	// finished remembers terminal records so TTL filtering and terminal
	// reconstruction happen after the whole log is folded.
	type terminal struct {
		state    State
		errMsg   string
		output   *Output
		finished time.Time
	}
	ends := make(map[string]terminal)
	starts := make(map[string]time.Time)
	for _, rec := range recs {
		switch rec.Type {
		case recSubmit:
			if rec.Spec == nil || jobs[rec.Job] != nil {
				continue
			}
			job := rehydrate(rec.Job, *rec.Spec, rec.Key, rec.Time)
			job.nowFn = s.cfg.Clock
			job.tenant = s.cfg.Tenants.Canonical(rec.Tenant)
			jobs[rec.Job] = job
			order = append(order, job)
		case recBatch:
			// One frame admits the whole batch; the CRC framing already
			// guaranteed we either see all of these entries or none.
			for _, be := range rec.Batch {
				if be.Spec == nil || be.Job == "" || jobs[be.Job] != nil {
					continue
				}
				job := rehydrate(be.Job, *be.Spec, "", rec.Time)
				job.nowFn = s.cfg.Clock
				job.tenant = s.cfg.Tenants.Canonical(rec.Tenant)
				jobs[be.Job] = job
				order = append(order, job)
			}
		case recStart, recRetry:
			if job := jobs[rec.Job]; job != nil {
				job.attempt = rec.Attempt
				starts[rec.Job] = rec.Time
			}
		case recCheckpoint:
			if job := jobs[rec.Job]; job != nil && rec.Stats != nil {
				job.addCheckpoint(rec.Cell, *rec.Stats)
			}
		case recFinish:
			if jobs[rec.Job] != nil {
				ends[rec.Job] = terminal{rec.State, rec.Error, rec.Output, rec.Time}
			}
		}
	}
	var pending []*Job
	for _, job := range order {
		end, done := ends[job.id]
		if done && now.Sub(end.finished) >= s.cfg.TTL {
			continue // expired while the daemon was down; invisible to /metrics
		}
		s.metrics.submitted.Add(1)
		tc := s.tenantCounters(job.tenant)
		tc.Admitted.Add(1)
		if done {
			tc.Done.Add(1)
			if st, ok := starts[job.id]; ok {
				job.started = st
			}
			switch end.state {
			case StateSucceeded:
				s.metrics.completed.Add(1)
			case StateFailed:
				s.metrics.failed.Add(1)
			case StateCanceled:
				s.metrics.canceled.Add(1)
			case StatePoisoned:
				s.metrics.poisoned.Add(1)
			}
			// Re-seed the Retry-After EWMA from the journaled run, so the
			// first post-boot 429 extrapolates drain time from real
			// durations instead of the floor.
			if st, ok := starts[job.id]; ok && end.finished.After(st) {
				s.metrics.ObserveLatency(end.finished.Sub(st).Seconds())
			}
			job.finish(end.state, end.output, end.errMsg, end.finished)
			s.store.Put(job)
			continue
		}
		if s.cfg.Retry.MaxAttempts > 1 && job.attempt >= s.cfg.Retry.MaxAttempts {
			// Crash-looped through its whole budget: quarantine at boot
			// instead of letting it take the pool down again.
			s.metrics.poisoned.Add(1)
			tc.Done.Add(1)
			job.finish(StatePoisoned, nil,
				fmt.Sprintf("poisoned at recovery after %d attempts", job.attempt), now)
			s.store.Put(job)
			continue
		}
		if s.cfg.Cache != nil {
			// Re-enqueued jobs re-take their flight slot so duplicate
			// submissions arriving after the reboot still collapse.
			job.digest = job.spec.Digest()
			_, job.flightLeader = s.flights.Begin(job.digest, job.id)
		}
		s.store.Put(job)
		pending = append(pending, job)
	}
	return pending
}

// snapshotRecords renders the whole store as logical journal records —
// the compaction image.
func (s *Service) snapshotRecords() []record {
	var recs []record
	for _, job := range s.store.All() {
		recs = append(recs, jobRecords(job)...)
	}
	return recs
}

// journalAppend appends rec when the journal is enabled, ignoring the
// error: Append already latched it for the readiness probe, and a job in
// flight is better finished in memory than aborted halfway. It is only for
// records whose store-visible effect is already in memory (start, retry) —
// losing such a record to a concurrent compaction loses no information,
// because the snapshot renders the state the record carries. Records that
// precede their in-memory update must go through journalApply instead.
func (s *Service) journalAppend(rec record) {
	if s.journal != nil {
		_ = s.journal.Append(rec)
	}
}

// journalApply journals rec and then runs the in-memory update it pairs
// with, holding the compaction read-lock across both. That closes the
// window the janitor's snapshot could otherwise slip into — record durably
// in the WAL, store not yet updated — where compaction would rewrite the
// log without the record and a crash would silently undo an acknowledged
// transition (a finished job re-running, a checkpoint lost). Append errors
// are ignored for the same reason as journalAppend.
func (s *Service) journalApply(rec record, apply func()) {
	s.compactMu.RLock()
	defer s.compactMu.RUnlock()
	if s.journal != nil {
		_ = s.journal.Append(rec)
	}
	apply()
}

// Metrics exposes the service counters.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Observability exposes the engine/sweep telemetry recorder the service
// threads into every job (obs.Nop unless Config.Obs installed one). The
// HTTP layer type-asserts it to io.WriterTo to merge the engine families
// into /metrics.
func (s *Service) Observability() obs.Recorder { return s.cfg.Obs }

// QueueDepth returns the number of jobs waiting for a worker, summed
// across every tenant's sub-queue.
func (s *Service) QueueDepth() int { return s.queue.Len() }

// TenantDepth returns one tenant's queued-job count (canonical name; ""
// for the default tenant).
func (s *Service) TenantDepth(tenant string) int {
	return s.queue.Depth(s.cfg.Tenants.Canonical(tenant))
}

// TenantMetrics exposes the per-tenant metric families; the HTTP layer
// appends them to /metrics.
func (s *Service) TenantMetrics() *obs.TenantSet { return s.tset }

// Tenants exposes the tenant registry (never nil after construction), so
// HTTP layers can resolve request credentials to canonical tenant names.
func (s *Service) Tenants() *fair.Registry { return s.cfg.Tenants }

// ResolveTenant maps request credentials (Authorization, X-Mobic-Tenant)
// to the canonical tenant name SubmitOpts.Tenant expects.
func (s *Service) ResolveTenant(authorization, tenantHeader string) string {
	return s.cfg.Tenants.Resolve(authorization, tenantHeader)
}

// tenantCounters returns the per-tenant counters for a canonical tenant
// name, keeping the weight gauge in sync with the registry policy.
func (s *Service) tenantCounters(tenant string) *obs.TenantCounters {
	tc := s.tset.Tenant(fair.Display(tenant))
	tc.SetWeight(s.cfg.Tenants.Lookup(tenant).Weight)
	return tc
}

// QueueCapacity returns the queue bound.
func (s *Service) QueueCapacity() int { return s.cfg.QueueCapacity }

// StoredJobs returns the number of jobs currently in the store.
func (s *Service) StoredJobs() int { return s.store.Len() }

// RecoveredJobs returns how many interrupted jobs Open re-enqueued.
func (s *Service) RecoveredJobs() int { return s.recovered }

// Ready reports whether the service should receive traffic: false while
// draining and false when the journal cannot persist records. The reason
// string is human-readable for the /readyz body.
func (s *Service) Ready() (bool, string) {
	if s.Draining() {
		return false, "draining"
	}
	if s.journal != nil {
		if err := s.journal.Err(); err != nil {
			return false, err.Error()
		}
	}
	return true, ""
}

// RetryAfterHint estimates, in whole seconds, how long a shed client
// should wait before resubmitting: the queue's expected drain time from
// the EWMA of recent job durations, floored at 1 s and capped at 30 s.
func (s *Service) RetryAfterHint() int {
	return retryAfterSeconds(s.QueueDepth(), s.cfg.Workers, s.metrics.LatencyEWMA())
}

// RetryAfterSeconds is the pure computation behind RetryAfterHint,
// exported so the coordinator can produce the same hint shape from its
// cluster-wide view (tracked in-flight jobs over healthy workers).
func RetryAfterSeconds(depth, workers int, ewmaSeconds float64) int {
	return retryAfterSeconds(depth, workers, ewmaSeconds)
}

// retryAfterSeconds is the unexported original; kept so internal callers
// and tests are undisturbed.
func retryAfterSeconds(depth, workers int, ewmaSeconds float64) int {
	if workers < 1 {
		workers = 1
	}
	if ewmaSeconds <= 0 {
		// No completed job yet: nothing to extrapolate from, suggest the
		// minimum.
		return 1
	}
	wait := ewmaSeconds * float64(depth+1) / float64(workers)
	secs := int(math.Ceil(wait))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// Start launches the worker pool and the TTL janitor.
func (s *Service) Start() {
	done := make([]chan struct{}, s.cfg.Workers)
	for i := range done {
		ch := make(chan struct{})
		done[i] = ch
		go func() {
			defer close(ch)
			for {
				// Pop applies priority, WFQ order and per-tenant running
				// caps; it blocks until the queue closes and drains.
				job, tenant, ok := s.queue.Pop()
				if !ok {
					return
				}
				tc := s.tenantCounters(tenant)
				tc.Queued.Add(-1)
				tc.Running.Add(1)
				s.runJob(job, tc)
				s.queue.Release(tenant)
			}
		}()
	}
	go func() {
		defer close(s.workersWG)
		for _, ch := range done {
			<-ch
		}
	}()
	go func() {
		defer close(s.janitorWG)
		ticker := time.NewTicker(s.cfg.EvictEvery)
		defer ticker.Stop()
		for {
			select {
			case <-s.baseCtx.Done():
				return
			case <-ticker.C:
				s.store.EvictExpired(s.cfg.Clock())
				s.replicas.Prune(s.cfg.TTL, s.cfg.Clock())
				// Compact past the size bound — or to heal a wedged journal:
				// after an append failure the WAL may end mid-frame, and only
				// a rewrite from live state makes it appendable (and the
				// daemon ready) again.
				if s.journal != nil && (s.journal.Size() > s.cfg.CompactBytes || s.journal.Err() != nil) {
					// The write side of compactMu excludes every in-flight
					// append+update pair, so the snapshot and the WAL swap
					// are atomic with respect to SubmitKey/journalApply: no
					// record fsync'd before the swap can be missing from
					// the snapshot that replaces it.
					s.compactMu.Lock()
					_ = s.journal.Compact(s.snapshotRecords())
					s.compactMu.Unlock()
				}
			}
		}
	}()
}

// Submit validates the spec and enqueues a job. It never blocks: a full
// queue fails fast with ErrQueueFull so the HTTP layer can shed load.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	job, _, err := s.SubmitKey(spec, "")
	return job, err
}

// SubmitKey is Submit with an optional idempotency key: when key is
// non-empty and a job with the same key is already stored (any state), that
// job is returned with existed=true instead of double-submitting. Keys are
// journaled with the submission, so replay protection survives a restart;
// they are released when the job's TTL evicts it.
func (s *Service) SubmitKey(spec JobSpec, key string) (job *Job, existed bool, err error) {
	return s.SubmitWith(spec, SubmitOpts{Key: key})
}

// SubmitOpts carries the optional submission parameters.
type SubmitOpts struct {
	// Key is the idempotency key ("" for none).
	Key string
	// Replica is the base URL of the peer this job's checkpoint records
	// are streamed to as they are journaled ("" for none). A coordinator
	// sets it to the job's ring successor via the X-Mobic-Replica header;
	// anything but an absolute http(s) URL with a host is rejected as
	// ErrInvalidSpec.
	Replica string
	// Tenant is the canonical tenant name the submission is admitted
	// under, as returned by ResolveTenant ("" = default tenant). Unknown
	// names fold per the registry's dynamic policy.
	Tenant string
}

// SubmitWith is SubmitKey with the full option set.
func (s *Service) SubmitWith(spec JobSpec, opts SubmitOpts) (job *Job, existed bool, err error) {
	key := opts.Key
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if err := validateReplica(opts.Replica); err != nil {
		return nil, false, err
	}
	spec = s.withDefaultSeeds(spec)
	tenant := s.cfg.Tenants.Canonical(opts.Tenant)

	// The semaphore serializes the closed-check with the enqueue so no
	// job can slip into the queue after Shutdown closed it; it also makes
	// idempotency lookups race-free against concurrent retries of the
	// same key, and serializes the Admit/Enqueue admission pair.
	s.submitMu <- struct{}{}
	defer func() { <-s.submitMu }()
	if s.closed {
		return nil, false, ErrShuttingDown
	}
	if key != "" {
		if prev, ok := s.store.ByKey(key); ok {
			return prev, true, nil
		}
	}
	var digest string
	if s.cfg.Cache != nil {
		digest = spec.Digest()
		// Finished result already cached: serve it as an instantly
		// terminal job, no queue slot and no simulation. Cache hits skip
		// admission on purpose — they consume no queue slot or worker.
		if job, ok := s.completeFromCache(spec, key, digest, tenant); ok {
			return job, false, nil
		}
		// Identical submission already in flight: attach to the leader.
		if leaderID, ok := s.flights.Leader(digest); ok {
			if prev, ok := s.store.Get(leaderID); ok {
				return prev, true, nil
			}
		}
	}
	if err := s.admit(tenant, 1); err != nil {
		return nil, false, err
	}
	job = newJob(spec, key, s.cfg.Clock())
	job.nowFn = s.cfg.Clock
	job.tenant = tenant
	job.replica = opts.Replica
	if digest != "" {
		job.digest = digest
		_, job.flightLeader = s.flights.Begin(digest, job.ID())
	}
	// Append and Put under the compaction read-lock: once the submit
	// record is durable the store must reflect the job before any
	// compaction snapshot runs, or the janitor would rewrite the WAL
	// without it and a crash would lose an acknowledged job.
	s.compactMu.RLock()
	if s.journal != nil {
		// WAL contract: durable before acknowledged.
		if err := s.journal.Append(record{Type: recSubmit, Job: job.ID(), Time: job.created, Spec: &spec, Key: key, Tenant: tenant}); err != nil {
			s.compactMu.RUnlock()
			return nil, false, err
		}
	}
	s.store.Put(job)
	s.compactMu.RUnlock()
	s.enqueue(job)
	s.repl.begin(job)
	return job, false, nil
}

// validateReplica checks an X-Mobic-Replica value: empty (no replica) or
// an absolute http/https URL with a host. The value comes from outside the
// program, and a bad one would keep a flusher retrying POSTs to nowhere
// for the job's whole life.
func validateReplica(replica string) error {
	if replica == "" {
		return nil
	}
	u, err := url.Parse(replica)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return invalidf("replica %q is not an absolute http(s) URL with a host", replica)
	}
	return nil
}

// DefaultSeeds is the seed count a submission that omits "seeds" runs
// with: the base runner's Seeds, or experiment.DefaultSeeds when unset.
func (s *Service) DefaultSeeds() int {
	if s.cfg.Runner.Seeds > 0 {
		return s.cfg.Runner.Seeds
	}
	return experiment.DefaultSeeds
}

// withDefaultSeeds resolves an omitted seed count at admission, so the
// spec that is journaled, digested and run always names the seed count
// that produces its result: a daemon restarted with a different -seeds
// can never serve a cached result computed under the old default.
func (s *Service) withDefaultSeeds(spec JobSpec) JobSpec {
	if spec.Seeds == 0 {
		spec.Seeds = s.DefaultSeeds()
	}
	return spec
}

// enqueue places an admitted job on its tenant's sub-queue and bumps the
// submission counters. Callers must hold submitMu (or be pre-Start
// recovery code).
func (s *Service) enqueue(job *Job) {
	s.queue.Enqueue(job.tenant, job)
	s.metrics.submitted.Add(1)
	tc := s.tenantCounters(job.tenant)
	tc.Admitted.Add(1)
	tc.Queued.Add(1)
}

// completeFromCache serves one submission from the result cache: a job is
// created and immediately finished with the cached output, journaled like
// any other completed job so it stays queryable across a restart. Callers
// must hold submitMu. Returns false on a cache miss (or an undecodable
// entry, which degrades to a miss).
func (s *Service) completeFromCache(spec JobSpec, key, digest, tenant string) (*Job, bool) {
	data, ok := s.cfg.Cache.Get(digest)
	if !ok {
		return nil, false
	}
	var out Output
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, false
	}
	now := s.cfg.Clock()
	job := newJob(spec, key, now)
	job.nowFn = s.cfg.Clock
	job.digest = digest
	job.tenant = tenant
	s.compactMu.RLock()
	if s.journal != nil {
		if err := s.journal.Append(record{Type: recSubmit, Job: job.ID(), Time: now, Spec: &spec, Key: key, Tenant: tenant}); err != nil {
			// The journal is wedged; fall through to the normal submit
			// path, which surfaces the error to the caller.
			s.compactMu.RUnlock()
			return nil, false
		}
		_ = s.journal.Append(record{Type: recFinish, Job: job.ID(), Time: now, State: StateSucceeded, Output: &out})
	}
	job.finish(StateSucceeded, &out, "", now)
	s.store.Put(job)
	s.compactMu.RUnlock()
	s.metrics.submitted.Add(1)
	s.metrics.completed.Add(1)
	// A cache hit consumes no queue slot or worker, so it bypasses the
	// admission gate; it still counts toward the tenant's admitted/done
	// tallies so the fairness-share observables stay truthful.
	tc := s.tenantCounters(tenant)
	tc.Admitted.Add(1)
	tc.Done.Add(1)
	return job, true
}

// settle closes out a job's content-addressed bookkeeping at its terminal
// transition: a successful output is published to the result cache under
// the job's digest, and the in-flight leadership (if this job held it) is
// released so later identical submissions consult the cache instead of
// attaching. No-op outside cache mode.
func (s *Service) settle(job *Job, out *Output) {
	if job.digest == "" {
		return
	}
	if out != nil && s.cfg.Cache != nil {
		if data, err := json.Marshal(out); err == nil {
			s.cfg.Cache.Put(job.digest, data)
		}
	}
	if job.flightLeader {
		s.flights.End(job.digest)
	}
}

// Restore enqueues a job under a caller-chosen ID: the coordinator's
// failover entry point. A sweep resumes from the checkpoint prefix a ring
// predecessor replicated here (see RestoreWith), exactly as a local crash
// recovery would, so its output — and its per-cell trace digests — are
// identical to an uninterrupted run (resume-equals-rerun, proven in the
// recovery tests). If a job with the same ID (or idempotency key) already
// exists, that job is returned with existed=true, which makes failover
// re-dispatch idempotent. Backpressure matches Submit: a full queue sheds
// with ErrQueueFull.
func (s *Service) Restore(id string, spec JobSpec, key string) (job *Job, existed bool, err error) {
	return s.RestoreWith(id, spec, SubmitOpts{Key: key})
}

// RestoreWith is Restore with the full option set. The resume point comes
// from the local replica store: when the job's previous owner streamed its
// checkpoints here, the job resumes after that contiguous prefix;
// otherwise it re-runs from cell 0. The replica arrived over the network,
// so it is used only when its spec digest matches and its prefix fits in
// the sweep's cell count.
func (s *Service) RestoreWith(id string, spec JobSpec, opts SubmitOpts) (job *Job, existed bool, err error) {
	key := opts.Key
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if err := validateReplica(opts.Replica); err != nil {
		return nil, false, err
	}
	if id == "" || len(id) > 64 {
		return nil, false, invalidf("restore id %q must be 1-64 characters", id)
	}
	var cps []experiment.CellStats
	if spec.Sweep != nil {
		cells := len(spec.Sweep.Algorithms) * max(1, len(spec.Sweep.TxRanges))
		if rspec, _, rcps, ok := s.replicas.Lookup(id); ok && len(rcps) <= cells && rspec.Digest() == spec.Digest() {
			cps = rcps
		}
	}

	s.submitMu <- struct{}{}
	defer func() { <-s.submitMu }()
	if s.closed {
		return nil, false, ErrShuttingDown
	}
	if prev, ok := s.store.Get(id); ok {
		return prev, true, nil
	}
	if key != "" {
		if prev, ok := s.store.ByKey(key); ok {
			return prev, true, nil
		}
	}
	tenant := s.cfg.Tenants.Canonical(opts.Tenant)
	if err := s.admit(tenant, 1); err != nil {
		return nil, false, err
	}
	now := s.cfg.Clock()
	job = rehydrate(id, spec, key, now)
	job.nowFn = s.cfg.Clock
	job.tenant = tenant
	job.replica = opts.Replica
	for i, cs := range cps {
		job.addCheckpoint(i, cs)
	}
	if len(cps) > 0 {
		s.cfg.Obs.Add(obs.ReplRestores, 1)
	}
	if s.cfg.Cache != nil {
		job.digest = spec.Digest()
		_, job.flightLeader = s.flights.Begin(job.digest, id)
	}
	s.compactMu.RLock()
	if s.journal != nil {
		if err := s.journal.Append(record{Type: recSubmit, Job: id, Time: now, Spec: &spec, Key: key, Tenant: tenant}); err != nil {
			s.compactMu.RUnlock()
			return nil, false, err
		}
		for i := range cps {
			cs := cps[i]
			_ = s.journal.Append(record{Type: recCheckpoint, Job: id, Time: now, Cell: i, Stats: &cs})
		}
	}
	s.store.Put(job)
	s.compactMu.RUnlock()
	s.enqueue(job)
	s.repl.begin(job)
	return job, false, nil
}

// Replicas exposes the checkpoint-replica store (the receiving side of
// proactive WAL replication); the HTTP layer serves it at /v1/replica/{id}.
func (s *Service) Replicas() *ReplicaStore { return s.replicas }

// Get looks a job up by ID.
func (s *Service) Get(id string) (*Job, bool) { return s.store.Get(id) }

// Cancel requests cancellation of a job by ID. A running job's context is
// canceled (its sweep aborts at the next scheduler chunk); a queued job is
// finished as canceled when a worker pops it.
func (s *Service) Cancel(id string) (*Job, bool) {
	job, ok := s.store.Get(id)
	if !ok {
		return nil, false
	}
	job.RequestCancel()
	return job, true
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Shutdown drains gracefully: no new submissions, queued and in-flight
// jobs run to completion (pending backoff retries are abandoned — in
// durable mode the journal re-runs them on the next boot). If ctx expires
// first, every remaining job is canceled and Shutdown returns ctx.Err()
// once workers exit.
func (s *Service) Shutdown(ctx context.Context) error {
	s.submitMu <- struct{}{}
	if !s.closed {
		s.closed = true
		s.queue.Close()
		close(s.draining)
	}
	<-s.submitMu

	finish := func() {
		s.baseCancel() // stop the janitor and wake pending retry timers
		s.waitRetries()
		<-s.janitorWG
		s.repl.close()
		if s.journal != nil {
			_ = s.journal.Close()
		}
	}
	select {
	case <-s.workersWG:
		finish()
		return nil
	case <-ctx.Done():
		// Drain deadline hit: abort in-flight jobs and the janitor.
		s.baseCancel()
		<-s.workersWG
		finish()
		return ctx.Err()
	}
}

// addRetry / doneRetry / waitRetries track in-flight retry goroutines with
// a channel-based counter (the codebase avoids sync.WaitGroup re-use
// pitfalls around Shutdown's two paths).
func (s *Service) addRetry()  { n := <-s.retryN; s.retryN <- n + 1 }
func (s *Service) doneRetry() { n := <-s.retryN; s.retryN <- n - 1 }
func (s *Service) waitRetries() {
	for {
		n := <-s.retryN
		s.retryN <- n
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// safeExecute invokes the executor with panic isolation: a panicking job
// surfaces as ErrJobPanicked (value and stack preserved) on its own job
// instead of killing the daemon and every other in-flight job with it.
func (s *Service) safeExecute(ctx context.Context, spec JobSpec, runner experiment.Runner, progress func(done, total int)) (out *Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("%w: %v\n%s", ErrJobPanicked, r, debug.Stack())
		}
	}()
	return s.cfg.Execute(ctx, spec, runner, progress)
}

// runJob executes one popped job end to end and classifies the outcome.
// tc is the job's tenant counters: the worker loop booked the job as
// running, and runJob books it back out before it publishes any outcome.
func (s *Service) runJob(job *Job, tc *obs.TenantCounters) {
	now := s.cfg.Clock()
	jobCtx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if t := job.spec.TimeoutSeconds; t > 0 {
		jobCtx, cancel = context.WithTimeout(jobCtx, time.Duration(t*float64(time.Second)))
		defer cancel()
	}

	if !job.setRunning(cancel, now) {
		// Canceled while queued: never ran.
		tc.Running.Add(-1)
		s.conclude(job, StateCanceled, nil, context.Canceled.Error(), now, true)
		return
	}
	attempt := job.beginAttempt()
	s.journalAppend(record{Type: recStart, Job: job.ID(), Time: now, Attempt: attempt})

	runner := s.cfg.Runner
	if job.spec.Sweep != nil {
		// Checkpoint/resume only applies to sweep jobs: they make exactly
		// one RunCells call, so the journaled contiguous cell prefix maps
		// 1:1 onto a StartCell offset. Named experiments re-run whole.
		if cps := job.checkpointed(); len(cps) > 0 {
			runner.StartCell = len(cps)
			runner.Resume = cps
		}
		runner.Checkpoint = func(cell int, cs experiment.CellStats) {
			rec := record{Type: recCheckpoint, Job: job.ID(), Time: s.cfg.Clock(), Cell: cell, Stats: &cs}
			s.journalApply(rec, func() {
				job.addCheckpoint(cell, cs)
			})
			// Replication rides the same record the WAL just fsync'd, so
			// the replica can never run ahead of local durability.
			s.repl.checkpoint(job.ID(), rec)
		}
	}

	s.metrics.inFlight.Add(1)
	out, err := s.safeExecute(jobCtx, job.spec, runner, job.setProgress)
	s.metrics.inFlight.Add(-1)
	tc.Running.Add(-1)

	end := s.cfg.Clock()
	s.metrics.ObserveLatency(end.Sub(now).Seconds())
	if s.cfg.Obs.Enabled() {
		s.cfg.Obs.Span(obs.SpanJob, now.UnixNano(), end.UnixNano())
	}
	switch {
	case err == nil:
		s.conclude(job, StateSucceeded, out, "", end, true)
	case errors.Is(err, context.Canceled):
		// A shutdown abort (baseCtx canceled without a user request) is
		// deliberately NOT journaled as terminal: the WAL still shows the
		// job mid-flight, so the next boot re-enqueues and resumes it.
		s.conclude(job, StateCanceled, nil, err.Error(), end, job.CancelRequested())
	case errors.Is(err, context.DeadlineExceeded):
		// The job consumed its own wall-clock budget; retrying would just
		// burn it again.
		s.conclude(job, StateFailed, nil, err.Error(), end, true)
	default:
		s.failAttempt(job, attempt, err, end)
	}
}

// conclude moves a job to its terminal state. The tenant's done counter is
// booked first, so whoever observes the terminal state also sees balanced
// tenant books. With durable set the finish record is journaled before the
// state is published; a shutdown abort passes false so the next boot
// resumes the job. The job's replication stream ends with it: a successor
// would serve a finished job's result, not resume it.
func (s *Service) conclude(job *Job, state State, out *Output, errMsg string, at time.Time, durable bool) {
	switch state {
	case StateSucceeded:
		s.metrics.completed.Add(1)
	case StateFailed:
		s.metrics.failed.Add(1)
	case StateCanceled:
		s.metrics.canceled.Add(1)
	case StatePoisoned:
		s.metrics.poisoned.Add(1)
	}
	s.tenantCounters(job.tenant).Done.Add(1)
	publish := func() { job.finish(state, out, errMsg, at) }
	if durable {
		s.journalApply(record{Type: recFinish, Job: job.ID(), Time: at, State: state, Error: errMsg, Output: out}, publish)
	} else {
		publish()
	}
	s.settle(job, out)
	s.repl.finish(job.ID())
}

// failAttempt classifies a failed execution: re-queue with backoff while
// attempts remain, quarantine as poisoned once they are exhausted (retries
// enabled), plain failure otherwise.
func (s *Service) failAttempt(job *Job, attempt int, cause error, now time.Time) {
	maxAttempts := s.cfg.Retry.MaxAttempts
	if attempt < maxAttempts && !s.Draining() {
		s.journalAppend(record{Type: recRetry, Job: job.ID(), Time: now, Attempt: attempt, Error: cause.Error()})
		if job.setRetrying(cause.Error()) {
			s.metrics.retried.Add(1)
			s.scheduleRetry(job, attempt, cause)
			return
		}
		// Canceled between the failure and the retry decision.
		s.conclude(job, StateCanceled, nil, context.Canceled.Error(), now, true)
		return
	}
	if maxAttempts > 1 && attempt >= maxAttempts {
		msg := fmt.Sprintf("poisoned after %d attempts: %v", attempt, cause)
		s.conclude(job, StatePoisoned, nil, msg, now, true)
		return
	}
	s.conclude(job, StateFailed, nil, cause.Error(), now, true)
}

// scheduleRetry re-enqueues job after a capped, jittered exponential
// backoff. Shutdown abandons the wait: the in-memory job finishes
// canceled, and in durable mode the journal's retry record re-runs it on
// the next boot.
func (s *Service) scheduleRetry(job *Job, attempt int, cause error) {
	delay := s.cfg.Retry.backoff(attempt)
	s.addRetry()
	go func() {
		defer s.doneRetry()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-s.draining:
		case <-s.baseCtx.Done():
		}
		s.submitMu <- struct{}{}
		if s.closed {
			<-s.submitMu
			s.conclude(job, StateCanceled, nil,
				fmt.Sprintf("retry %d abandoned by shutdown (last error: %v)", attempt+1, cause), s.cfg.Clock(), false)
			return
		}
		// Requeue bypasses quota and rate admission on purpose: the job
		// was admitted at submit time and shedding a retry would turn a
		// transient execution failure into a lost acknowledged job. The
		// unbounded sub-queue means this never blocks.
		s.queue.Requeue(job.tenant, job)
		s.tenantCounters(job.tenant).Queued.Add(1)
		<-s.submitMu
	}()
}
