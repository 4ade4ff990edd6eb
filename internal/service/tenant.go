package service

import (
	"errors"
	"fmt"
	"math"

	"mobic/internal/fair"
)

// ErrTenantQuota reports a submission shed because the tenant's queued-job
// quota (max_queued) is exhausted. The HTTP layer maps it to 429 with a
// per-tenant Retry-After.
var ErrTenantQuota = errors.New("service: tenant queue quota exhausted")

// ErrRateLimited reports a submission shed by the tenant's token-bucket
// rate limit. The HTTP layer maps it to 429 with a Retry-After derived
// from the bucket's refill rate.
var ErrRateLimited = errors.New("service: tenant rate limit exceeded")

// ShedError wraps an admission refusal with the tenant it hit and the
// per-tenant Retry-After hint, so transports can surface tenant-specific
// backpressure instead of the global queue estimate. Unwrap yields one of
// ErrQueueFull, ErrTenantQuota or ErrRateLimited for errors.Is dispatch.
type ShedError struct {
	Err        error  // sentinel: ErrQueueFull, ErrTenantQuota or ErrRateLimited
	Tenant     string // exposition name of the shed tenant
	Reason     string // fair.ReasonQuota, fair.ReasonRate or fair.ReasonCapacity
	RetryAfter int    // whole seconds, always >= 1
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("%v (tenant %s, retry after %ds)", e.Err, e.Tenant, e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return e.Err }

// admit runs the fair-queue admission gate for n jobs from tenant.
// Callers must hold submitMu (the Admit decision and the matching
// Enqueue must not interleave with another producer's). A refusal bumps
// the global rejected counter once (it is one shed request) and the
// tenant's shed counter by n (it sheds n jobs).
func (s *Service) admit(tenant string, n int) error {
	sh := s.queue.Admit(tenant, n)
	if sh == nil {
		return nil
	}
	s.metrics.rejected.Add(1)
	s.tenantCounters(tenant).Shed.Add(int64(n))
	se := &ShedError{Tenant: fair.Display(tenant), Reason: sh.Reason}
	switch sh.Reason {
	case fair.ReasonRate:
		se.Err = ErrRateLimited
		// Round the bucket's exact refill time up to whole seconds,
		// clamped to the same [1, 30] band as the queue-depth hint.
		se.RetryAfter = int(math.Ceil(sh.RetryAfter))
		if se.RetryAfter < 1 {
			se.RetryAfter = 1
		}
		if se.RetryAfter > 30 {
			se.RetryAfter = 30
		}
	case fair.ReasonQuota:
		se.Err = ErrTenantQuota
		// The tenant's own backlog, not the global depth, predicts when
		// its quota frees up.
		se.RetryAfter = retryAfterSeconds(s.queue.Depth(tenant), s.cfg.Workers, s.metrics.LatencyEWMA())
	default: // fair.ReasonCapacity
		se.Err = ErrQueueFull
		se.RetryAfter = s.RetryAfterHint()
	}
	return se
}

// MaxBatchJobs caps the number of specs one POST /v1/jobs:batch may
// carry. The whole batch is journaled as a single WAL frame, so the cap
// also bounds the largest record a replayer must buffer.
const MaxBatchJobs = 64

// SubmitBatch validates and admits a batch of job specs atomically:
// either every spec is valid, within quota, and journaled in one WAL
// record — or nothing is enqueued. The all-or-none guarantee spans
// crashes: the batch record is a single CRC-framed WAL frame, so replay
// after a crash either sees the whole batch or none of it, never a
// prefix.
//
// Batch jobs carry no idempotency keys and never attach to in-flight
// duplicates (each job is its own leader-less submission); their results
// still publish to the result cache under each spec's digest.
func (s *Service) SubmitBatch(specs []JobSpec, opts SubmitOpts) ([]*Job, error) {
	if len(specs) == 0 {
		return nil, invalidf("batch must contain at least one job")
	}
	if len(specs) > MaxBatchJobs {
		return nil, invalidf("batch of %d jobs exceeds the %d-job limit", len(specs), MaxBatchJobs)
	}
	// Validate everything before admitting anything: one bad spec fails
	// the whole batch with its index, and no sibling is enqueued.
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("jobs[%d]: %w", i, err)
		}
	}
	if err := validateReplica(opts.Replica); err != nil {
		return nil, err
	}
	tenant := s.cfg.Tenants.Canonical(opts.Tenant)

	s.submitMu <- struct{}{}
	defer func() { <-s.submitMu }()
	if s.closed {
		return nil, ErrShuttingDown
	}
	// One admission decision for the whole batch: n jobs are admitted
	// together or shed together (a partial admit would break atomicity).
	if err := s.admit(tenant, len(specs)); err != nil {
		return nil, err
	}
	now := s.cfg.Clock()
	jobs := make([]*Job, len(specs))
	entries := make([]batchEntry, len(specs))
	for i := range specs {
		spec := s.withDefaultSeeds(specs[i])
		job := newJob(spec, "", now)
		job.nowFn = s.cfg.Clock
		job.tenant = tenant
		job.replica = opts.Replica
		if s.cfg.Cache != nil {
			job.digest = spec.Digest()
		}
		jobs[i] = job
		entries[i] = batchEntry{Job: job.ID(), Spec: &spec}
	}
	// The single append is the atomicity point: the whole batch becomes
	// durable in one frame, and the store reflects every job before any
	// compaction snapshot can run.
	s.compactMu.RLock()
	if s.journal != nil {
		if err := s.journal.Append(record{Type: recBatch, Time: now, Tenant: tenant, Batch: entries}); err != nil {
			s.compactMu.RUnlock()
			return nil, err
		}
	}
	for _, job := range jobs {
		s.store.Put(job)
	}
	s.compactMu.RUnlock()
	for _, job := range jobs {
		s.enqueue(job)
		s.repl.begin(job)
	}
	return jobs, nil
}
