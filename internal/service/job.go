package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"mobic/internal/experiment"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: queued -> running -> succeeded | failed | canceled |
// poisoned. A queued job canceled before a worker picks it up goes straight
// to canceled. With retries enabled (Config.Retry.MaxAttempts > 1) a failed
// attempt moves the job back to queued until its attempts are exhausted, at
// which point it is quarantined as poisoned.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
	// StatePoisoned quarantines a job that failed Retry.MaxAttempts times:
	// it is terminal and will never be re-enqueued — not even across a
	// daemon restart — so one bad spec cannot busy-loop the worker pool.
	StatePoisoned State = "poisoned"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled || s == StatePoisoned
}

// StreamEvent is one NDJSON line of GET /v1/jobs/{id}/stream:
//
//   - "status":   a state transition (queued -> running)
//   - "progress": one completed simulation cell
//   - "result":   the terminal event; Status carries the final state,
//     error (if any) and result payload. Always the last line.
type StreamEvent struct {
	Type  string  `json:"type"`
	State State   `json:"state,omitempty"`
	Done  int     `json:"done,omitempty"`
	Total int     `json:"total,omitempty"`
	Stat  *Status `json:"status,omitempty"`
}

// Job is one submitted simulation. All mutable fields are guarded by mu;
// readers take Snapshot and stream watchers replay the append-only event
// log, blocking on the notify channel, which is closed-and-replaced on
// every change (a broadcast that needs no subscriber registry). The log —
// rather than snapshot polling — guarantees no progress event is coalesced
// away, so streams see every completed cell. Its length is bounded by the
// job's cell count (seeds × sweep points) plus two transitions.
type Job struct {
	id      string
	spec    JobSpec
	idemKey string // immutable after construction
	// digest is the spec's content address, set at submit time in cache
	// mode (empty otherwise); flightLeader records whether this job holds
	// the singleflight slot for that digest. Both immutable after submit.
	digest       string
	flightLeader bool
	// replica is the base URL of the ring successor this job's checkpoint
	// records stream to ("" for none). Immutable after submit.
	replica string
	// tenant is the canonical tenant name the job was admitted under (""
	// for the default tenant). It keys the fair-queue sub-queue and the
	// per-tenant metric families, is journaled with the submission, and is
	// immutable after submit.
	tenant string

	mu       sync.Mutex
	notify   chan struct{}
	version  int
	events   []StreamEvent
	state    State
	done     int
	total    int
	attempt  int // executions started so far (journaled, survives restarts)
	errMsg   string
	output   *Output
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	wantStop bool
	// nowFn supplies wall time for the ETA estimate (overridden by the
	// service clock, so tests with fake clocks get deterministic ETAs).
	nowFn func() time.Time
	// cps is the contiguous prefix of completed-and-checkpointed sweep
	// cells; a retry or a post-crash resume restarts from len(cps).
	cps []experiment.CellStats
}

// newJob creates a queued job with a fresh random ID.
func newJob(spec JobSpec, idemKey string, now time.Time) *Job {
	return rehydrate(newJobID(), spec, idemKey, now)
}

// rehydrate builds a queued job with a known ID — the journal replay path.
// Attempt counts and checkpoints are layered on by the replayer.
func rehydrate(id string, spec JobSpec, idemKey string, created time.Time) *Job {
	return &Job{
		id:      id,
		spec:    spec,
		idemKey: idemKey,
		notify:  make(chan struct{}),
		state:   StateQueued,
		created: created,
		nowFn:   time.Now,
		events:  []StreamEvent{{Type: "status", State: StateQueued}},
	}
}

// newJobID returns 16 hex chars of crypto randomness — unguessable enough
// that knowing an ID is the only capability needed to read or cancel a job.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("service: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// ID returns the immutable job identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's immutable submission spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Tenant returns the canonical tenant name the job was admitted under (""
// for the default tenant).
func (j *Job) Tenant() string { return j.tenant }

// changed bumps the version and wakes every watcher. Callers must hold mu.
func (j *Job) changed() {
	j.version++
	close(j.notify)
	j.notify = make(chan struct{})
}

// setRunning transitions queued -> running and installs the cancel func
// for this job's context. Returns false when the job was canceled while
// queued (the worker must then skip it).
func (j *Job) setRunning(cancel context.CancelFunc, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wantStop {
		return false
	}
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	j.events = append(j.events, StreamEvent{Type: "status", State: StateRunning})
	j.changed()
	return true
}

// beginAttempt bumps and returns the execution-attempt counter; the worker
// calls it once per run, right after the queued -> running transition.
func (j *Job) beginAttempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempt++
	return j.attempt
}

// setRetrying moves a failed running job back to queued for another
// attempt, keeping the last error visible while it waits. Returns false if
// the job was canceled or already terminal — the caller must finish it
// instead of retrying.
func (j *Job) setRetrying(reason string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wantStop || j.state.Terminal() {
		return false
	}
	j.state = StateQueued
	j.cancel = nil
	j.errMsg = reason
	j.events = append(j.events, StreamEvent{Type: "status", State: StateQueued})
	j.changed()
	return true
}

// addCheckpoint records the next completed sweep cell. Out-of-order calls
// are ignored: checkpoints are only meaningful as a contiguous prefix.
func (j *Job) addCheckpoint(cell int, cs experiment.CellStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cell == len(j.cps) {
		j.cps = append(j.cps, cs)
	}
}

// checkpointed returns a copy of the contiguous completed-cell prefix.
func (j *Job) checkpointed() []experiment.CellStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.cps) == 0 {
		return nil
	}
	out := make([]experiment.CellStats, len(j.cps))
	copy(out, j.cps)
	return out
}

// CancelRequested reports whether a caller asked this job to stop — what
// distinguishes a user cancellation from a shutdown abort.
func (j *Job) CancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wantStop
}

// setProgress records cell completion; safe to call from runner workers.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done, j.total = done, total
	j.events = append(j.events, StreamEvent{Type: "progress", State: j.state, Done: done, Total: total})
	j.changed()
}

// finish transitions to a terminal state. It is a no-op if the job already
// finished.
func (j *Job) finish(state State, out *Output, errMsg string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.output = out
	j.errMsg = errMsg
	j.finished = now
	j.cancel = nil
	st := j.statusLocked()
	j.events = append(j.events, StreamEvent{Type: "result", State: state, Stat: &st})
	j.changed()
}

// EventsSince returns the stream events from index i on, plus the channel
// closed on the next change. Stream handlers replay events in order and
// block on the channel between batches.
func (j *Job) EventsSince(i int) ([]StreamEvent, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i > len(j.events) {
		i = len(j.events)
	}
	// The events slice is append-only, so sharing the backing array with
	// readers is safe.
	return j.events[i:], j.notify
}

// RequestCancel marks the job for cancellation. A running job's context is
// canceled immediately; a queued job is finished as canceled by the worker
// that eventually pops it (or here if it never started). It returns true
// if the request had any effect.
func (j *Job) RequestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.wantStop {
		return false
	}
	j.wantStop = true
	if j.cancel != nil {
		j.cancel()
	}
	j.changed()
	return true
}

// Status is the wire representation of a job, served by GET /v1/jobs/{id}
// and streamed as NDJSON lines by /stream.
type Status struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`
	// Tenant is the tenant the job was admitted under; omitted for the
	// default tenant, so single-tenant deployments keep their exact
	// pre-multi-tenancy wire format.
	Tenant string `json:"tenant,omitempty"`
	// Done/Total count completed simulation cells (seeds × sweep points).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Progress is the job's completed fraction in [0, 1]: Done/Total while
	// cells are reporting, pinned to 1 once the job succeeded. It is
	// monotonic non-decreasing across polls of a running job.
	Progress float64 `json:"progress"`
	// ETASeconds extrapolates the remaining wall-clock seconds from the
	// cell-completion cadence of the current attempt. Present only while
	// the job is running and at least one cell has completed.
	ETASeconds float64 `json:"eta_seconds,omitempty"`
	// Attempt is the number of execution attempts started so far (0 while
	// the job has never run). It survives daemon restarts via the journal.
	Attempt int `json:"attempt,omitempty"`
	// Degraded marks a job a coordinator ran locally because the ring had
	// no live owner for its digest. The service itself never sets it; the
	// dispatch layer decorates statuses of its local-fallback jobs.
	Degraded bool `json:"degraded,omitempty"`
	// Error is the failure reason (context.Canceled for canceled jobs,
	// context.DeadlineExceeded for timeouts).
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Result and Cells are present once the job succeeded.
	Output
}

// Snapshot returns a consistent copy of the job plus its change version and
// the channel that will be closed on the next change. Watch loops write the
// snapshot, then block on the channel (or their own context).
func (j *Job) Snapshot() (Status, int, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), j.version, j.notify
}

// statusLocked builds the wire status; callers must hold mu.
func (j *Job) statusLocked() Status {
	st := Status{
		ID:        j.id,
		State:     j.state,
		Spec:      j.spec,
		Tenant:    j.tenant,
		Done:      j.done,
		Total:     j.total,
		Attempt:   j.attempt,
		Error:     j.errMsg,
		CreatedAt: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.output != nil {
		st.Output = *j.output
	}
	switch {
	case j.state == StateSucceeded:
		st.Progress = 1
	case j.total > 0:
		st.Progress = float64(j.done) / float64(j.total)
	}
	// ETA from the cell-completion cadence: with done cells in (now -
	// started) seconds, the remaining total-done extrapolate linearly.
	if j.state == StateRunning && j.done > 0 && j.total > j.done && !j.started.IsZero() {
		if elapsed := j.nowFn().Sub(j.started).Seconds(); elapsed > 0 {
			st.ETASeconds = elapsed * float64(j.total-j.done) / float64(j.done)
		}
	}
	return st
}
