package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobic/internal/experiment"
	"mobic/internal/simnet"
)

// newTestAPI spins up a service with the given config plus an httptest
// server on its handler; both are torn down with the test.
func newTestAPI(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	svc.Start()
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc, srv
}

func postJob(t *testing.T, srv *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, r io.Reader) Status {
	t.Helper()
	var st Status
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getStatus polls GET /v1/jobs/{id} until the job is terminal.
func getStatus(t *testing.T, srv *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPSubmitAndFetchResult(t *testing.T) {
	_, srv := newTestAPI(t, Config{Execute: instantExecute(2)})

	resp := postJob(t, srv, `{"experiment":"fig3","seeds":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if st.ID == "" || st.Spec.Experiment != "fig3" {
		t.Fatalf("submit response: %+v", st)
	}

	final := getStatus(t, srv, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.ID != "stub" {
		t.Errorf("result missing from final status: %+v", final.Result)
	}
}

func TestHTTPSubmitErrors(t *testing.T) {
	_, srv := newTestAPI(t, Config{Execute: instantExecute(1)})

	const restore = `{"spec":{"experiment":"fig3"}}`
	cases := []struct {
		name    string
		path    string
		body    string
		replica string // X-Mobic-Replica header ("" = unset)
		want    int
	}{
		{"malformed json", "/v1/jobs", `{"experiment":`, "", http.StatusBadRequest},
		{"unknown field", "/v1/jobs", `{"experiment":"fig3","bogus":1}`, "", http.StatusBadRequest},
		{"invalid spec", "/v1/jobs", `{}`, "", http.StatusBadRequest},
		{"unknown experiment", "/v1/jobs", `{"experiment":"fig99"}`, "", http.StatusBadRequest},
		{"replica not a URL", "/v1/jobs", `{"experiment":"fig3"}`, "peer-b:8080", http.StatusBadRequest},
		{"replica relative", "/v1/jobs", `{"experiment":"fig3"}`, "/v1/replica", http.StatusBadRequest},
		{"replica without host", "/v1/jobs", `{"experiment":"fig3"}`, "http://", http.StatusBadRequest},
		{"replica bad scheme", "/v1/jobs", `{"experiment":"fig3"}`, "ftp://peer-b", http.StatusBadRequest},
		{"batch replica bad scheme", "/v1/jobs:batch", `{"jobs":[{"experiment":"fig3"}]}`, "file:///tmp/x", http.StatusBadRequest},
		{"restore replica without host", "/v1/jobs/abc123/restore", restore, "https:///x", http.StatusBadRequest},
		{"restore replica not a URL", "/v1/jobs/abc123/restore", restore, "::", http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodPost, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tc.replica != "" {
			req.Header.Set("X-Mobic-Replica", tc.replica)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if eb.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
}

// TestHTTPRejectsTilesField pins the API edge of the tiled scheduler's
// removal: a submission still carrying "tiles" is a 400 naming the field,
// on both the single and the batch endpoint, rather than a silently
// ignored knob.
func TestHTTPRejectsTilesField(t *testing.T) {
	_, srv := newTestAPI(t, Config{Execute: instantExecute(1)})
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", `{"experiment":"fig3","tiles":4}`},
		{"/v1/jobs:batch", `{"jobs":[{"experiment":"fig3"},{"experiment":"fig3","tiles":4}]}`},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, `unknown field "tiles"`) {
			t.Errorf("%s: status %d, error %q; want 400 naming the unknown field", tc.path, resp.StatusCode, eb.Error)
		}
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	_, srv := newTestAPI(t, Config{
		Workers:       1,
		QueueCapacity: 1,
		Execute:       blockingExecute(started, release),
	})

	for i := 0; i < 2; i++ { // one running, one queued
		resp := postJob(t, srv, `{"experiment":"fig3"}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status = %d", i, resp.StatusCode)
		}
		if i == 0 {
			<-started
		}
	}
	resp := postJob(t, srv, `{"experiment":"fig3"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
}

func TestHTTPJobNotFound(t *testing.T) {
	_, srv := newTestAPI(t, Config{Execute: instantExecute(1)})
	for _, path := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/stream"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHTTPCancel(t *testing.T) {
	started := make(chan string, 1)
	_, srv := newTestAPI(t, Config{Workers: 1, Execute: blockingExecute(started, nil)})

	resp := postJob(t, srv, `{"experiment":"fig3"}`)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	<-started

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", dresp.StatusCode)
	}
	final := getStatus(t, srv, st.ID)
	if final.State != StateCanceled {
		t.Errorf("state = %s, want canceled", final.State)
	}
	if !strings.Contains(final.Error, context.Canceled.Error()) {
		t.Errorf("error = %q, want context cancellation surfaced", final.Error)
	}
}

// TestHTTPStream reads the NDJSON stream of a slow job and checks it sees
// multiple progress events and a terminal line carrying the result.
func TestHTTPStream(t *testing.T) {
	step := make(chan struct{})
	execute := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		for i := 1; i <= 3; i++ {
			select {
			case <-step:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			progress(i, 3)
		}
		return &Output{Result: &experiment.Result{ID: "stub", Title: "stub"}}, nil
	}
	_, srv := newTestAPI(t, Config{Workers: 1, Execute: execute})

	resp := postJob(t, srv, `{"experiment":"fig3"}`)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()

	sresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	// Release the three progress steps while the stream is attached.
	go func() {
		for i := 0; i < 3; i++ {
			step <- struct{}{}
		}
	}()

	var (
		lines    []StreamEvent
		progress int
	)
	scanner := bufio.NewScanner(sresp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var line StreamEvent
		if err := json.Unmarshal(scanner.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		lines = append(lines, line)
		if line.Type == "progress" {
			progress++
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	last := lines[len(lines)-1]
	if last.Type != "result" || last.State != StateSucceeded || last.Stat == nil || last.Stat.Result == nil {
		t.Errorf("terminal line: %+v", last)
	}
	if progress != 3 {
		t.Errorf("saw %d progress events, want exactly 3 (no coalescing)", progress)
	}
	// Stream must open with the queued/running transitions.
	if lines[0].Type != "status" || lines[0].State != StateQueued {
		t.Errorf("first line = %+v, want queued status", lines[0])
	}
}

// TestHTTPProgressMonotonic drives a five-cell job step by step and polls
// GET /v1/jobs/{id} after each completed cell: the reported progress
// fraction must match done/total exactly, never decrease across polls, and
// the final NDJSON stream event must report 100%. Running polls with
// done>0 must also carry an ETA.
func TestHTTPProgressMonotonic(t *testing.T) {
	const cells = 5
	step := make(chan struct{})
	stepped := make(chan struct{})
	execute := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		for i := 1; i <= cells; i++ {
			select {
			case <-step:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			progress(i, cells)
			stepped <- struct{}{}
		}
		return &Output{Result: &experiment.Result{ID: "stub", Title: "stub"}}, nil
	}
	_, srv := newTestAPI(t, Config{Workers: 1, Execute: execute})

	resp := postJob(t, srv, `{"experiment":"fig3"}`)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if st.Progress != 0 {
		t.Errorf("progress at submit = %g, want 0", st.Progress)
	}

	// Attach the stream before any cell completes so it sees full history.
	sresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()

	prev := 0.0
	for i := 1; i <= cells; i++ {
		step <- struct{}{}
		<-stepped // progress(i, cells) has been applied
		gresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		poll := decodeStatus(t, gresp.Body)
		gresp.Body.Close()
		if want := float64(i) / cells; poll.Progress != want {
			t.Errorf("poll %d: progress = %g, want %g", i, poll.Progress, want)
		}
		if poll.Progress < prev {
			t.Errorf("poll %d: progress decreased %g -> %g", i, prev, poll.Progress)
		}
		prev = poll.Progress
		if poll.State == StateRunning && i < cells && poll.ETASeconds <= 0 {
			t.Errorf("poll %d: running with done>0 but no ETA (%g)", i, poll.ETASeconds)
		}
	}

	final := getStatus(t, srv, st.ID)
	if final.State != StateSucceeded || final.Progress != 1 {
		t.Fatalf("final: state=%s progress=%g, want succeeded at 1", final.State, final.Progress)
	}
	if final.ETASeconds != 0 {
		t.Errorf("terminal status carries ETA %g, want omitted", final.ETASeconds)
	}

	// The stream's terminal event must agree: 100% on the result line.
	var lastEv StreamEvent
	scanner := bufio.NewScanner(sresp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		if err := json.Unmarshal(scanner.Bytes(), &lastEv); err != nil {
			t.Fatal(err)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if lastEv.Type != "result" || lastEv.Stat == nil {
		t.Fatalf("terminal event = %+v", lastEv)
	}
	if lastEv.Stat.Progress != 1 {
		t.Errorf("stream result progress = %g, want 1", lastEv.Stat.Progress)
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	svc, srv := newTestAPI(t, Config{Execute: instantExecute(1)})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status        string `json:"status"`
		QueueCapacity int    `json:"queue_capacity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.QueueCapacity != svc.QueueCapacity() {
		t.Errorf("healthz = %+v", h)
	}

	// Run one job so the counters and the latency histogram move.
	presp := postJob(t, srv, `{"experiment":"fig3"}`)
	st := decodeStatus(t, presp.Body)
	presp.Body.Close()
	getStatus(t, srv, st.ID)

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mobicd_jobs_submitted_total 1",
		"mobicd_jobs_completed_total 1",
		"mobicd_queue_depth 0",
		"mobicd_jobs_in_flight 0",
		`mobicd_job_latency_seconds_bucket{le="+Inf"} 1`,
		"mobicd_job_latency_seconds_count 1",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestHTTPEndToEndSimulation exercises the real simulator through the full
// HTTP path: one Figure 3 cell (Table 1 scenario at Tx 150 m, trimmed to
// 60 s / 15 nodes for speed) submitted as a custom sweep, streamed to
// completion, result fetched as stable JSON.
func TestHTTPEndToEndSimulation(t *testing.T) {
	runner := experiment.Runner{
		Seeds: 2,
		Mutate: func(cfg *simnet.Config) {
			cfg.N = 15
			cfg.Duration = 60
		},
	}
	_, srv := newTestAPI(t, Config{Workers: 1, Runner: runner})

	body := `{"sweep":{"scenario":{"tx_range":150},"algorithms":["mobic","lcc"]},"include_raw":true}`
	resp := postJob(t, srv, body)
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status = %d: %s", resp.StatusCode, msg)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()

	sresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var progress int
	var lastEv StreamEvent
	scanner := bufio.NewScanner(sresp.Body)
	scanner.Buffer(make([]byte, 1<<22), 1<<22)
	for scanner.Scan() {
		if err := json.Unmarshal(scanner.Bytes(), &lastEv); err != nil {
			t.Fatal(err)
		}
		if lastEv.Type == "progress" {
			progress++
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if lastEv.Type != "result" || lastEv.Stat == nil {
		t.Fatalf("terminal event = %+v", lastEv)
	}
	last := *lastEv.Stat
	if last.State != StateSucceeded {
		t.Fatalf("state = %s (%s)", last.State, last.Error)
	}
	// 2 cells x 2 seeds: the stream must deliver every cell completion.
	if progress != 4 {
		t.Errorf("saw %d progress events, want 4", progress)
	}
	if last.Result == nil || len(last.Result.Series) != 2 {
		t.Fatalf("result = %+v, want 2 series", last.Result)
	}
	if got := len(last.Cells); got != 2 {
		t.Fatalf("cells = %d, want 2", got)
	}
	for i, cell := range last.Cells {
		if cell.Broadcasts <= 0 {
			t.Errorf("cell %d: no broadcasts recorded", i)
		}
		if len(cell.Raw) != 2 {
			t.Errorf("cell %d: raw seeds = %d, want 2 (include_raw)", i, len(cell.Raw))
		}
	}
	// The synthesized series must agree with the per-cell aggregates.
	for ai := range last.Result.Series {
		if got, want := last.Result.Series[ai].Y[0], last.Cells[ai].CHChanges; got != want {
			t.Errorf("series %d: y = %g, cell ch_changes = %g", ai, got, want)
		}
	}
}
