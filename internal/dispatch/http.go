package dispatch

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"mobic/internal/obs"
	"mobic/internal/service"
)

// NewHandler exposes the coordinator under the same API surface as a
// single worker, so clients need not know whether they talk to one daemon
// or a cluster:
//
//	POST   /v1/jobs             place a job on its ring owner (202/200);
//	                            identical specs are answered from the
//	                            result cache or collapsed onto the job
//	                            already in flight
//	POST   /v1/jobs:batch       place a batch atomically on one ring owner
//	                            (all-or-none, like the worker endpoint)
//	GET    /v1/jobs/{id}        status, proxied to the owning worker
//	                            (answered locally once terminal)
//	GET    /v1/jobs/{id}/stream NDJSON stream, proxied; on reconnect the
//	                            proxy skips the lines it already delivered,
//	                            so clients see each event exactly once
//	DELETE /v1/jobs/{id}        cancel, proxied
//	GET    /livez               process liveness
//	GET    /readyz              503 until at least one worker is healthy
//	GET    /metrics             dispatch + cache telemetry
//
// Tenant identity (Authorization API key / X-Mobic-Tenant header) is
// forwarded verbatim to the owning worker, which makes the admission
// decision; per-tenant 429s and Retry-After hints pass back through.
func NewHandler(c *Coordinator) http.Handler {
	h := &proxy{c: c}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("POST /v1/jobs:batch", h.submitBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", h.stream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("GET /livez", h.livez)
	mux.HandleFunc("GET /readyz", h.readyz)
	mux.HandleFunc("GET /healthz", h.readyz)
	mux.HandleFunc("GET /metrics", h.metrics)
	return mux
}

type proxy struct {
	c *Coordinator
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// parseRetryAfter reads a Retry-After header value as whole seconds,
// accepting both the delta-seconds and HTTP-date forms. Returns 0 when
// absent or unparseable.
func parseRetryAfter(v string, now time.Time) int {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return secs
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now).Seconds(); d > 0 {
			return int(math.Ceil(d))
		}
	}
	return 0
}

// submit places one job. Order of resolution: coordinator result cache
// (terminal answer, no worker touched), digest flight (attach to the
// identical job already running), consistent-hash forward (ring owner
// first, successors on connection failure).
func (p *proxy) submit(w http.ResponseWriter, r *http.Request) {
	var spec service.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Seeds == 0 {
		spec.Seeds = p.c.defaultSeeds()
	}
	digest := spec.Digest()
	key := r.Header.Get("Idempotency-Key")

	if p.c.cfg.Cache != nil {
		if data, ok := p.c.cfg.Cache.Get(digest); ok {
			var out service.Output
			if err := json.Unmarshal(data, &out); err == nil {
				now := p.c.cfg.Clock()
				st := service.Status{
					ID:         randomID(),
					State:      service.StateSucceeded,
					Spec:       spec,
					Progress:   1,
					CreatedAt:  now,
					FinishedAt: &now,
					Output:     out,
				}
				p.c.track(&remoteJob{
					id: st.ID, digest: digest, key: key, spec: spec,
					synthetic: true, terminal: true, final: &st,
					created: now, finished: now,
				})
				w.Header().Set("Location", "/v1/jobs/"+st.ID)
				writeJSON(w, http.StatusOK, st)
				return
			}
		}
	}

	// Identical spec already in flight at the coordinator level: hand back
	// the leader instead of forwarding a duplicate (the worker's own flight
	// map would collapse it too, but answering here spares the hop).
	if leaderID, ok := p.c.flights.Leader(digest); ok {
		if j, ok := p.c.lookup(leaderID); ok {
			w.Header().Set("Location", "/v1/jobs/"+j.id)
			p.serveTracked(w, r, j, http.StatusOK)
			return
		}
	}

	body, err := json.Marshal(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	hdr := http.Header{"Content-Type": {"application/json"}}
	if key != "" {
		hdr.Set("Idempotency-Key", key)
	}
	copyTenantHeaders(hdr, r)
	for _, peer := range p.c.ring.Owners(digest) {
		if p.c.isDown(peer) {
			continue
		}
		hdr.Del("X-Mobic-Replica")
		if rt := p.c.replicaTarget(digest, peer); rt != "" {
			hdr.Set("X-Mobic-Replica", rt)
		}
		// Single breaker-gated attempt per peer: the ring walk itself is
		// the retry, and an open breaker skips the peer without waiting
		// out an attempt timeout.
		resp, err := p.c.attempt(r.Context(), peer, http.MethodPost, "/v1/jobs", body, hdr)
		if err != nil {
			// Connection-level failure: walk to the ring successor. The
			// health loop will mark the peer down on its own cadence.
			p.c.cfg.Logger.Warn("submit forward failed", "peer", peer, "err", err)
			continue
		}
		p.relaySubmit(w, resp, spec, digest, key, peer)
		return
	}
	// Degraded mode: the ring has no live owner. Run the job on the
	// embedded fallback service rather than bouncing the client.
	if p.c.cfg.Local != nil {
		p.submitLocal(w, r, spec, digest, key)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "dispatch: no healthy worker")
}

// copyTenantHeaders forwards the request's tenant credentials to a
// worker, which owns the admission decision (the coordinator has no
// tenant registry of its own).
func copyTenantHeaders(hdr http.Header, r *http.Request) {
	if auth := r.Header.Get("Authorization"); auth != "" {
		hdr.Set("Authorization", auth)
	}
	if tn := r.Header.Get("X-Mobic-Tenant"); tn != "" {
		hdr.Set("X-Mobic-Tenant", tn)
	}
}

// submitLocal places a job on the coordinator's embedded fallback service
// and tracks it as a degraded-mode local job. Statuses it serves carry
// "degraded": true so callers can tell the answer was not cluster-placed.
func (p *proxy) submitLocal(w http.ResponseWriter, r *http.Request, spec service.JobSpec, digest, key string) {
	tenant := p.c.cfg.Local.ResolveTenant(r.Header.Get("Authorization"), r.Header.Get("X-Mobic-Tenant"))
	job, existed, err := p.c.cfg.Local.SubmitWith(spec, service.SubmitOpts{Key: key, Tenant: tenant})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "dispatch: degraded submit: %v", err)
		return
	}
	if !existed {
		p.c.track(&remoteJob{
			id: job.ID(), digest: digest, key: key, spec: spec,
			local: true, created: p.c.cfg.Clock(),
		})
		p.c.cfg.Obs.Add(obs.DispatchDegraded, 1)
		p.c.cfg.Logger.Warn("no healthy worker; running job locally", "job", job.ID())
	}
	st, _, _ := job.Snapshot()
	st.Degraded = true
	code := http.StatusAccepted
	if existed || st.State.Terminal() {
		code = http.StatusOK
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, code, st)
}

// submitBatch proxies POST /v1/jobs:batch. The whole batch is placed on
// one ring owner (keyed by the combined spec digest, so sibling jobs stay
// co-located and the worker's single-WAL-frame atomicity holds for the
// batch); the worker makes the all-or-none admission decision.
func (p *proxy) submitBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Jobs []service.JobSpec `json:"jobs"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch must contain at least one job")
		return
	}
	if len(req.Jobs) > service.MaxBatchJobs {
		writeError(w, http.StatusBadRequest, "batch of %d jobs exceeds the %d-job limit", len(req.Jobs), service.MaxBatchJobs)
		return
	}
	for i := range req.Jobs {
		if err := req.Jobs[i].Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "jobs[%d]: %v", i, err)
			return
		}
		if req.Jobs[i].Seeds == 0 {
			req.Jobs[i].Seeds = p.c.defaultSeeds()
		}
	}
	h := sha256.New()
	for i := range req.Jobs {
		io.WriteString(h, req.Jobs[i].Digest())
	}
	batchDigest := hex.EncodeToString(h.Sum(nil))
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	hdr := http.Header{"Content-Type": {"application/json"}}
	copyTenantHeaders(hdr, r)
	for _, peer := range p.c.ring.Owners(batchDigest) {
		if p.c.isDown(peer) {
			continue
		}
		resp, err := p.c.attempt(r.Context(), peer, http.MethodPost, "/v1/jobs:batch", body, hdr)
		if err != nil {
			p.c.cfg.Logger.Warn("batch forward failed", "peer", peer, "err", err)
			continue
		}
		p.relayBatch(w, resp, req.Jobs, peer)
		return
	}
	if p.c.cfg.Local != nil {
		p.batchLocal(w, r, req.Jobs)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "dispatch: no healthy worker")
}

// relayBatch finishes a forwarded batch: tracks each accepted job under
// its own spec digest, merges Retry-After hints on shed, and passes
// everything else through.
func (p *proxy) relayBatch(w http.ResponseWriter, resp *http.Response, specs []service.JobSpec, peer string) {
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var br struct {
			Jobs []service.Status `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			writeError(w, http.StatusBadGateway, "decoding worker response: %v", err)
			return
		}
		now := p.c.cfg.Clock()
		for i, st := range br.Jobs {
			if i >= len(specs) {
				break
			}
			p.c.track(&remoteJob{
				id: st.ID, digest: specs[i].Digest(), spec: specs[i],
				tenant: st.Tenant, peer: peer, created: now,
			})
		}
		p.c.cfg.Obs.Add(obs.DispatchForwarded, int64(len(br.Jobs)))
		writeJSON(w, resp.StatusCode, br)
	case http.StatusTooManyRequests:
		hint := p.c.retryAfterHint()
		if peerHint := parseRetryAfter(resp.Header.Get("Retry-After"), p.c.cfg.Clock()); peerHint > hint {
			hint = peerHint
		}
		w.Header().Set("Retry-After", strconv.Itoa(hint))
		passthrough(w, resp)
	default:
		passthrough(w, resp)
	}
}

// batchLocal runs a batch on the embedded fallback service in degraded
// mode, preserving the all-or-none contract (the local service journals
// the batch in one frame too).
func (p *proxy) batchLocal(w http.ResponseWriter, r *http.Request, specs []service.JobSpec) {
	tenant := p.c.cfg.Local.ResolveTenant(r.Header.Get("Authorization"), r.Header.Get("X-Mobic-Tenant"))
	jobs, err := p.c.cfg.Local.SubmitBatch(specs, service.SubmitOpts{Tenant: tenant})
	switch {
	case errors.Is(err, service.ErrInvalidSpec):
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrTenantQuota), errors.Is(err, service.ErrRateLimited):
		retry := p.c.retryAfterHint()
		var se *service.ShedError
		if errors.As(err, &se) && se.RetryAfter > retry {
			retry = se.RetryAfter
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, "dispatch: degraded batch: %v", err)
		return
	}
	now := p.c.cfg.Clock()
	statuses := make([]service.Status, len(jobs))
	for i, job := range jobs {
		p.c.track(&remoteJob{
			id: job.ID(), digest: specs[i].Digest(), spec: specs[i],
			tenant: tenant, local: true, created: now,
		})
		statuses[i], _, _ = job.Snapshot()
		statuses[i].Degraded = true
	}
	p.c.cfg.Obs.Add(obs.DispatchDegraded, int64(len(jobs)))
	p.c.cfg.Logger.Warn("no healthy worker; running batch locally", "jobs", len(jobs))
	writeJSON(w, http.StatusAccepted, struct {
		Jobs []service.Status `json:"jobs"`
	}{statuses})
}

// relaySubmit finishes a forwarded submission: tracks accepted jobs,
// merges Retry-After hints on shed, and passes everything else through.
func (p *proxy) relaySubmit(w http.ResponseWriter, resp *http.Response, spec service.JobSpec, digest, key, peer string) {
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusOK:
		var st service.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			writeError(w, http.StatusBadGateway, "decoding worker response: %v", err)
			return
		}
		j := &remoteJob{
			id: st.ID, digest: digest, key: key, spec: spec,
			tenant: st.Tenant, peer: peer, created: p.c.cfg.Clock(),
		}
		if st.State.Terminal() {
			// The worker answered from its own cache: terminal on arrival.
			j.terminal, j.final, j.finished = true, &st, p.c.cfg.Clock()
		}
		p.c.track(j)
		p.c.cfg.Obs.Add(obs.DispatchForwarded, 1)
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		writeJSON(w, resp.StatusCode, st)
	case http.StatusTooManyRequests:
		// Shed: the cluster-wide hint and the owning worker's hint answer
		// different questions (global drain vs. that queue's drain); a
		// client obeying the max of both is safe either way. Always
		// integer seconds.
		hint := p.c.retryAfterHint()
		if peerHint := parseRetryAfter(resp.Header.Get("Retry-After"), p.c.cfg.Clock()); peerHint > hint {
			hint = peerHint
		}
		w.Header().Set("Retry-After", strconv.Itoa(hint))
		passthrough(w, resp)
	default:
		passthrough(w, resp)
	}
}

// passthrough copies a worker response (status, content type, body) as-is.
func passthrough(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// serveTracked answers a status query for a tracked job: locally once
// terminal, proxied to the owning worker otherwise.
func (p *proxy) serveTracked(w http.ResponseWriter, r *http.Request, j *remoteJob, code int) {
	p.c.mu.Lock()
	terminal, final, peer, local := j.terminal, j.final, j.peer, j.local
	p.c.mu.Unlock()
	if terminal && final != nil {
		writeJSON(w, code, final)
		return
	}
	if local {
		job, ok := p.c.cfg.Local.Get(j.id)
		if !ok {
			writeError(w, http.StatusNotFound, "no job %q (it may have expired)", j.id)
			return
		}
		st, _, _ := job.Snapshot()
		st.Degraded = true
		writeJSON(w, code, st)
		return
	}
	var st service.Status
	if err := p.c.getJSON(r.Context(), peer, "/v1/jobs/"+j.id, &st); err != nil {
		writeError(w, http.StatusBadGateway, "worker unreachable: %v", err)
		return
	}
	writeJSON(w, code, st)
}

func (p *proxy) status(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := p.c.lookup(id); ok {
		p.serveTracked(w, r, j, http.StatusOK)
		return
	}
	// Not ours — possibly submitted directly to a worker. Probe the
	// healthy peers.
	for _, peer := range p.c.HealthyPeers() {
		var st service.Status
		if err := p.c.getJSON(r.Context(), peer, "/v1/jobs/"+id, &st); err == nil {
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	writeError(w, http.StatusNotFound, "no job %q (it may have expired)", id)
}

func (p *proxy) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	peers := p.c.HealthyPeers()
	if j, ok := p.c.lookup(id); ok {
		p.c.mu.Lock()
		terminal, final, peer, local := j.terminal, j.final, j.peer, j.local
		p.c.mu.Unlock()
		if terminal && final != nil {
			writeJSON(w, http.StatusOK, final)
			return
		}
		if local {
			job, ok := p.c.cfg.Local.Cancel(id)
			if !ok {
				writeError(w, http.StatusNotFound, "no job %q (it may have expired)", id)
				return
			}
			st, _, _ := job.Snapshot()
			st.Degraded = true
			writeJSON(w, http.StatusOK, st)
			return
		}
		peers = []string{peer}
	}
	for _, peer := range peers {
		resp, err := p.c.call(r.Context(), peer, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			passthrough(w, resp)
			resp.Body.Close()
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	writeError(w, http.StatusNotFound, "no job %q (it may have expired)", id)
}

// stream proxies the NDJSON event stream. If the owning worker dies
// mid-stream, the proxy waits for failover and reconnects; the upstream
// replays its event log from the start, and the proxy skips the lines it
// already delivered, so the client sees each event exactly once and the
// terminal "result" line appears exactly once, last.
func (p *proxy) stream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, tracked := p.c.lookup(id)
	if !tracked {
		writeError(w, http.StatusNotFound, "no job %q (it may have expired)", id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Push the header out so a client attached to a queued job is not
	// stuck in its transport waiting for the first byte.
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)

	// written counts the NDJSON lines already delivered to the client.
	// Upstream replays its event log from the start on every attempt, so
	// each reconnect skips exactly that many lines — without it, every
	// reconnect duplicated the whole history the client had already seen.
	written := 0
	for {
		p.c.mu.Lock()
		terminal, final, peer, local := j.terminal, j.final, j.peer, j.local
		p.c.mu.Unlock()
		if terminal && final != nil {
			// Answered locally (cache hit, or completion observed by the
			// poll loop after the stream's worker died).
			_ = enc.Encode(service.StreamEvent{Type: "result", State: final.State, Stat: final})
			return
		}
		if local {
			p.streamLocal(w, r, enc, flusher, j)
			return
		}
		delivered, done := p.copyStream(w, r, flusher, peer, id, written)
		written += delivered
		if done {
			return
		}
		// Stream broke before the result line: worker died or restarted.
		// Wait a beat for health/failover to repoint the job, then retry.
		select {
		case <-r.Context().Done():
			return
		case <-p.c.ctx.Done():
			return
		case <-time.After(p.c.cfg.PollEvery):
		}
	}
}

// copyStream relays one upstream stream attempt, skipping the first skip
// lines (already delivered by a previous attempt). It returns how many
// new lines it delivered and whether the terminal result line went out.
//
// The skip is sound because a reconnect to the same worker replays a
// strict superset of the previous attempt's prefix. A failed-over
// successor resumes from the last replicated checkpoint, so its log can be
// shorter than what was already delivered; then the attempt delivers
// nothing (even a replayed "result" line is consumed by the skip) and the
// loop falls back to the poll path, which serves the terminal status from
// the coordinator's own record — the result still reaches the client
// exactly once.
func (p *proxy) copyStream(w io.Writer, r *http.Request, flusher http.Flusher, peer, id string, skip int) (delivered int, done bool) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		peer+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return 0, false
	}
	resp, err := p.c.streamClient.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, false
	}
	br := bufio.NewReaderSize(resp.Body, 64*1024)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			// The connection died mid-line (or closed cleanly): a partial
			// tail is dropped, never forwarded — skip counts only complete
			// delivered lines, so the reconnect replays the torn line whole.
			return delivered, false
		}
		if skip > 0 {
			skip--
			continue
		}
		if _, err := w.Write(line); err != nil {
			return delivered, true // client went away; nothing more to deliver
		}
		delivered++
		if flusher != nil {
			flusher.Flush()
		}
		var ev service.StreamEvent
		if json.Unmarshal(line, &ev) == nil && ev.Type == "result" {
			return delivered, true
		}
	}
}

// streamLocal serves a degraded-mode job's event log straight from the
// embedded fallback service — same replay loop a worker runs, with the
// terminal status decorated as degraded.
func (p *proxy) streamLocal(w http.ResponseWriter, r *http.Request, enc *json.Encoder, flusher http.Flusher, j *remoteJob) {
	job, ok := p.c.cfg.Local.Get(j.id)
	if !ok {
		return
	}
	next := 0
	for {
		events, notify := job.EventsSince(next)
		for _, ev := range events {
			if ev.Type == "result" && ev.Stat != nil {
				st := *ev.Stat
				st.Degraded = true
				ev.Stat = &st
			}
			if err := enc.Encode(ev); err != nil {
				return // client went away
			}
			// Same per-event flush as the worker's handler: a batch-end
			// flush starved the client of the last line in every burst.
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
		case <-p.c.ctx.Done():
			return
		}
	}
}

func (p *proxy) livez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// readyz reports coordinator readiness: able to place work, i.e. at least
// one worker is passing health checks.
func (p *proxy) readyz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status       string `json:"status"`
		Ready        bool   `json:"ready"`
		Reason       string `json:"reason,omitempty"`
		PeersHealthy int    `json:"peers_healthy"`
		PeersTotal   int    `json:"peers_total"`
		TrackedJobs  int    `json:"tracked_jobs"`
	}
	healthy := len(p.c.HealthyPeers())
	h := health{
		Status:       "ok",
		Ready:        healthy > 0,
		PeersHealthy: healthy,
		PeersTotal:   len(p.c.ring.Peers()),
		TrackedJobs:  p.c.TrackedJobs(),
	}
	code := http.StatusOK
	switch {
	case h.Ready:
	case p.c.cfg.Local != nil:
		// No worker up, but the embedded fallback can still run jobs:
		// degraded, not down — routing traffic away would help nobody.
		h.Ready = true
		h.Status = "degraded"
		h.Reason = "no healthy workers; submissions run locally"
	default:
		h.Status = "no healthy workers"
		h.Reason = h.Status
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// metrics serves the dispatch/cache telemetry families plus per-peer
// liveness gauges.
func (p *proxy) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if wt, ok := p.c.cfg.Obs.(io.WriterTo); ok {
		_, _ = wt.WriteTo(w)
	}
	fmt.Fprintf(w, "# HELP mobic_dispatch_jobs_tracked Jobs currently tracked by the coordinator.\n")
	fmt.Fprintf(w, "# TYPE mobic_dispatch_jobs_tracked gauge\n")
	fmt.Fprintf(w, "mobic_dispatch_jobs_tracked %d\n", p.c.TrackedJobs())
	fmt.Fprintf(w, "# HELP mobic_dispatch_peer_up Per-worker health (1 = passing /readyz).\n")
	fmt.Fprintf(w, "# TYPE mobic_dispatch_peer_up gauge\n")
	for _, peer := range p.c.ring.Peers() {
		up := 1
		if p.c.isDown(peer) {
			up = 0
		}
		fmt.Fprintf(w, "mobic_dispatch_peer_up{peer=%q} %d\n", peer, up)
	}
	fmt.Fprintf(w, "# HELP mobic_dispatch_breaker_state Per-peer circuit breaker (0 closed, 1 open, 2 half-open).\n")
	fmt.Fprintf(w, "# TYPE mobic_dispatch_breaker_state gauge\n")
	for _, peer := range p.c.ring.Peers() {
		fmt.Fprintf(w, "mobic_dispatch_breaker_state{peer=%q} %d\n", peer, p.c.breaker(peer).State())
	}
}
