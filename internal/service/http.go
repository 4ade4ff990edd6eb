package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mobic/internal/experiment"
)

// NewHandler exposes the service as a JSON HTTP API:
//
//	POST   /v1/jobs             submit a job (202, or 429 + Retry-After);
//	                            an Idempotency-Key header makes retried
//	                            submissions return the original job (200)
//	POST   /v1/jobs:batch       submit up to MaxBatchJobs specs atomically:
//	                            every spec validates and is journaled in one
//	                            WAL record, or nothing is enqueued (400/429
//	                            for the whole batch)
//	GET    /v1/jobs/{id}        job status (+ result once finished)
//	GET    /v1/jobs/{id}/stream NDJSON status stream until terminal
//	POST   /v1/jobs/{id}/restore
//	                            re-create a job under the given ID; it
//	                            resumes after the checkpoint prefix held in
//	                            the local replica store, else from cell 0
//	DELETE /v1/jobs/{id}        request cancellation
//	POST   /v1/replica/{id}     one replication batch from the job's owner
//	GET    /v1/replica/{id}     the replica held for a job
//	GET    /livez               liveness: 200 while the process serves
//	GET    /readyz              readiness: 503 while draining or when the
//	                            journal cannot persist records
//	GET    /healthz             alias for /readyz (readiness + queue gauges)
//	GET    /metrics             Prometheus text metrics
//
// Submit, batch submit and restore accept an X-Mobic-Replica header naming
// the peer the job's checkpoints are streamed to; a value that is not an
// absolute http(s) URL with a host is a 400.
//
// Tenant identity comes from the X-Mobic-Tenant header (explicit name,
// wins) or the Authorization header (API key, optionally "Bearer "-
// prefixed); unauthenticated requests run as the default tenant. Over-
// quota and over-rate tenants are shed with a per-tenant 429 +
// Retry-After while other tenants keep being admitted.
func NewHandler(svc *Service) http.Handler {
	a := &api{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.submit)
	mux.HandleFunc("POST /v1/jobs:batch", a.submitBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", a.status)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", a.stream)
	mux.HandleFunc("POST /v1/jobs/{id}/restore", a.restore)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.cancel)
	mux.HandleFunc("POST /v1/replica/{id}", a.replicaPut)
	mux.HandleFunc("GET /v1/replica/{id}", a.replicaGet)
	mux.HandleFunc("GET /livez", a.livez)
	mux.HandleFunc("GET /readyz", a.readyz)
	mux.HandleFunc("GET /healthz", a.readyz)
	mux.HandleFunc("GET /metrics", a.metrics)
	return mux
}

type api struct {
	svc *Service
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // header already sent; nothing useful to do on error
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// tenant resolves the request's tenant identity for SubmitOpts.
func (a *api) tenant(r *http.Request) string {
	return a.svc.ResolveTenant(r.Header.Get("Authorization"), r.Header.Get("X-Mobic-Tenant"))
}

// shed writes the 429 for an admission refusal. A *ShedError carries the
// per-tenant Retry-After (quota and rate sheds predict when that tenant
// frees up); a bare ErrQueueFull falls back to the global queue hint.
func (a *api) shed(w http.ResponseWriter, err error) {
	retry := a.svc.RetryAfterHint()
	var se *ShedError
	if errors.As(err, &se) {
		retry = se.RetryAfter
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusTooManyRequests, "%v", err)
}

// isShed reports whether err is any admission refusal (capacity, tenant
// quota, or rate limit) — everything that maps to 429.
func isShed(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTenantQuota) || errors.Is(err, ErrRateLimited)
}

// submit handles POST /v1/jobs. Backpressure contract: when the queue is
// full the request is shed with 429 and a Retry-After hint derived from the
// queue depth and the EWMA of recent job durations. An Idempotency-Key
// header makes the submission replay-safe: resubmitting the same key
// returns the original job with 200 instead of creating a duplicate, and
// the mapping survives daemon restarts via the journal.
func (a *api) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	job, existed, err := a.svc.SubmitWith(spec, SubmitOpts{
		Key:     r.Header.Get("Idempotency-Key"),
		Replica: r.Header.Get("X-Mobic-Replica"),
		Tenant:  a.tenant(r),
	})
	switch {
	case errors.Is(err, ErrInvalidSpec):
		writeError(w, http.StatusBadRequest, "%v", err)
	case isShed(err):
		a.shed(w, err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		st, _, _ := job.Snapshot()
		w.Header().Set("Location", "/v1/jobs/"+job.ID())
		code := http.StatusAccepted
		if existed {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	}
}

// batchRequest is the body of POST /v1/jobs:batch.
type batchRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// batchResponse mirrors the request: one Status per submitted spec, in
// order.
type batchResponse struct {
	Jobs []Status `json:"jobs"`
}

// decodeBatch parses a batch body. Factored out of the handler so the
// fuzz target exercises exactly the wire decoder.
func decodeBatch(r io.Reader) (batchRequest, error) {
	var req batchRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return batchRequest{}, err
	}
	return req, nil
}

// submitBatch handles POST /v1/jobs:batch: all-or-none submission of up
// to MaxBatchJobs specs. One invalid spec 400s the whole batch (naming
// its index); admission is a single decision for the batch, so a 429
// sheds every spec together. On 202 the response lists one Status per
// spec, in request order.
func (a *api) submitBatch(w http.ResponseWriter, r *http.Request) {
	req, err := decodeBatch(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	jobs, err := a.svc.SubmitBatch(req.Jobs, SubmitOpts{
		Replica: r.Header.Get("X-Mobic-Replica"),
		Tenant:  a.tenant(r),
	})
	switch {
	case errors.Is(err, ErrInvalidSpec):
		writeError(w, http.StatusBadRequest, "%v", err)
	case isShed(err):
		a.shed(w, err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		resp := batchResponse{Jobs: make([]Status, len(jobs))}
		for i, job := range jobs {
			resp.Jobs[i], _, _ = job.Snapshot()
		}
		writeJSON(w, http.StatusAccepted, resp)
	}
}

// job resolves the {id} path value, writing 404 on a miss.
func (a *api) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := a.svc.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q (it may have expired)", id)
		return nil, false
	}
	return job, true
}

func (a *api) status(w http.ResponseWriter, r *http.Request) {
	job, ok := a.job(w, r)
	if !ok {
		return
	}
	st, _, _ := job.Snapshot()
	writeJSON(w, http.StatusOK, st)
}

func (a *api) cancel(w http.ResponseWriter, r *http.Request) {
	job, ok := a.job(w, r)
	if !ok {
		return
	}
	job.RequestCancel()
	st, _, _ := job.Snapshot()
	writeJSON(w, http.StatusOK, st)
}

// restoreRequest is the body of POST /v1/jobs/{id}/restore; the path
// carries the job ID.
type restoreRequest struct {
	Spec   JobSpec `json:"spec"`
	Key    string  `json:"key,omitempty"`
	Tenant string  `json:"tenant,omitempty"`
}

// restore handles POST /v1/jobs/{id}/restore: the failover entry point. A
// job is created under the caller-chosen ID and enqueued; it resumes after
// the checkpoint prefix its previous owner replicated here (see
// Service.RestoreWith). Replaying the same restore is idempotent (200 with
// the existing job). Backpressure matches submit: 429 + Retry-After.
func (a *api) restore(w http.ResponseWriter, r *http.Request) {
	var req restoreRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding restore request: %v", err)
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = a.tenant(r)
	}
	job, existed, err := a.svc.RestoreWith(r.PathValue("id"), req.Spec, SubmitOpts{
		Key:     req.Key,
		Replica: r.Header.Get("X-Mobic-Replica"),
		Tenant:  tenant,
	})
	switch {
	case errors.Is(err, ErrInvalidSpec):
		writeError(w, http.StatusBadRequest, "%v", err)
	case isShed(err):
		a.shed(w, err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		st, _, _ := job.Snapshot()
		w.Header().Set("Location", "/v1/jobs/"+job.ID())
		code := http.StatusAccepted
		if existed {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	}
}

// replicaPut handles POST /v1/replica/{id}: one proactive-replication batch
// (MOBICREPL1 magic + CRC-framed records) from a ring predecessor. The
// response acks the record count now held, which the sender uses as its
// high-water mark. Torn or corrupt frames end the batch's valid prefix
// exactly like WAL replay; a batch with no intact submit record is a 400.
func (a *api) replicaPut(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading replica batch: %v", err)
		return
	}
	n, err := a.svc.Replicas().Apply(r.PathValue("id"), data, time.Now())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"records": n})
}

// ReplicaView is the wire form of GET /v1/replica/{id}.
type ReplicaView struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
	Key  string  `json:"key,omitempty"`
	// Cells is the replicated contiguous completed-cell prefix.
	Cells []experiment.CellStats `json:"cells"`
}

// replicaGet handles GET /v1/replica/{id}: the replica's current view —
// what a failover restore would resume from. Used by tests and operators
// to observe replication lag.
func (a *api) replicaGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spec, key, cps, ok := a.svc.Replicas().Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no replica for job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, ReplicaView{ID: id, Spec: spec, Key: key, Cells: cps})
}

// stream handles GET /v1/jobs/{id}/stream: one NDJSON StreamEvent line
// per state transition and completed cell, flushed immediately, ending
// with the "result" event (which carries the final status and payload).
// Clients just read lines until EOF. The event log is replayed from the
// beginning, so attaching late still yields the full history.
func (a *api) stream(w http.ResponseWriter, r *http.Request) {
	job, ok := a.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Push the response header out immediately: a client attaching to a
	// queued job would otherwise see its GET hang in the transport until
	// the first event happens to fill the write buffer.
	if flusher != nil {
		flusher.Flush()
	}

	enc := json.NewEncoder(w)
	next := 0
	for {
		events, notify := job.EventsSince(next)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return // client went away
			}
			// Flush per event, not per batch: batching delayed every line
			// but the last in a burst, and a burst ending in "result"
			// returned before flushing at all, leaving the final events
			// stuck in the buffer until the handler's implicit close.
			if flusher != nil {
				flusher.Flush()
			}
			if ev.Type == "result" {
				return
			}
		}
		next += len(events)
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// livez is the liveness probe: 200 as long as the process can serve HTTP
// at all. It deliberately checks nothing else — a draining daemon or a
// full disk is degraded, not dead, and restarting it would lose in-flight
// work. Orchestrators should restart on /livez failures and merely stop
// routing on /readyz failures.
func (a *api) livez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// readyz is the readiness probe (also served at /healthz for backwards
// compatibility): 503 with "ready": false while the service is draining or
// its journal cannot persist records — accepting a job that cannot be made
// durable would silently void the crash-recovery guarantee. The body keeps
// the load gauges an external balancer needs for routing decisions.
func (a *api) readyz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status        string `json:"status"`
		Ready         bool   `json:"ready"`
		Reason        string `json:"reason,omitempty"`
		QueueDepth    int    `json:"queue_depth"`
		QueueCapacity int    `json:"queue_capacity"`
		StoredJobs    int    `json:"stored_jobs"`
	}
	ready, reason := a.svc.Ready()
	h := health{
		Status:        "ok",
		Ready:         ready,
		Reason:        reason,
		QueueDepth:    a.svc.QueueDepth(),
		QueueCapacity: a.svc.QueueCapacity(),
		StoredJobs:    a.svc.StoredJobs(),
	}
	code := http.StatusOK
	if !ready {
		h.Status = reason
		if a.svc.Draining() {
			h.Status = "draining"
		}
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (a *api) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := a.svc.Metrics().WriteTo(w, a.svc.QueueDepth(), a.svc.StoredJobs()); err != nil {
		return
	}
	// Engine/experiment telemetry families (mobic_sim_*, mobic_net_*,
	// mobic_experiment_*) follow the service's own when a Registry is
	// installed; obs.Nop has no exposition and is skipped.
	if wt, ok := a.svc.Observability().(io.WriterTo); ok {
		_, _ = wt.WriteTo(w)
	}
	// Per-tenant admission/fairness families (mobicd_tenant_*).
	_, _ = a.svc.TenantMetrics().WriteTo(w)
}
