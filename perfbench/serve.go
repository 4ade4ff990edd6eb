package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mobic/internal/cache"
	"mobic/internal/dispatch"
	"mobic/internal/experiment"
	"mobic/internal/service"
)

// Serve-mix inputs: every job is a small real sweep.
const (
	serveNodes    = 50
	serveDuration = 120.0
	// serveBoots is how many times a run boots the stack to time set-up;
	// the last boot serves the loop.
	serveBoots = 7
	// serveFreshShare is the probability that a submission is a fresh spec
	// rather than a repeat of one the same client already completed.
	serveFreshShare = 0.5
	// servePinned is how many fresh specs per client the reference pins.
	servePinned = 8
	// probeSeconds is the length of the serving probe in the traced runs
	// of the simulation workloads.
	probeSeconds = 3
)

var (
	serveAlgorithms = []string{"lcc", "mobic"}
	serveTxRanges   = []float64{150, 250}
)

// serveSpec is the job a client submits for one base seed.
func serveSpec(baseSeed uint64) service.JobSpec {
	return service.JobSpec{
		Sweep: &service.SweepSpec{
			Scenario:   service.ScenarioSpec{N: serveNodes, Duration: serveDuration},
			Algorithms: serveAlgorithms,
			TxRanges:   serveTxRanges,
		},
		Seeds:    1,
		BaseSeed: baseSeed,
	}
}

// freshSeed is the base seed of client c's k-th fresh spec.
func freshSeed(seed uint64, c, k int) uint64 {
	return seed*1_000_000 + uint64(c)*100_000 + uint64(k) + 1
}

// serveNodeSeconds is the simulated node-seconds of one fresh job.
func serveNodeSeconds() float64 {
	return serveNodes * serveDuration * float64(len(serveAlgorithms)*len(serveTxRanges))
}

// walProbe wraps a worker's journal file to count bytes and time fsyncs.
type walProbe struct {
	service.WALFile
	stats *walStats
}

type walStats struct {
	bytes, syncs, syncNs atomic.Int64
}

func (w walProbe) Write(p []byte) (int, error) {
	n, err := w.WALFile.Write(p)
	w.stats.bytes.Add(int64(n))
	return n, err
}

func (w walProbe) Sync() error {
	start := time.Now()
	err := w.WALFile.Sync()
	w.stats.syncNs.Add(int64(time.Since(start)))
	w.stats.syncs.Add(1)
	return err
}

// serveHooks are the traced run's hooks into the stack.
type serveHooks struct {
	rec    *layerRecorder
	probes *probeSet
	wal    walStats
}

// stack is one process-local deployment: a coordinator with an embedded
// fallback service in front of two durable workers, all on loopback HTTP,
// configured with mobicd's defaults.
type stack struct {
	coordURL   string
	workerURLs []string
	workers    []*service.Service
	local      *service.Service
	coord      *dispatch.Coordinator
	servers    []*http.Server
	serving    sync.WaitGroup
}

func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// bootStack starts the stack under dir and waits until all three servers
// answer /readyz (the coordinator with both workers healthy).
func bootStack(dir string, h *serveHooks) (*stack, error) {
	s := &stack{}
	var base service.Config
	if h != nil {
		base.Obs = h.rec
		base.Runner.Mutate = h.probes.mutate
		base.WrapWAL = func(f service.WALFile) service.WALFile { return walProbe{f, &h.wal} }
	}
	for i := range 2 {
		dataDir := filepath.Join(dir, "worker"+strconv.Itoa(i))
		results, err := cache.Open(cache.Config{MaxEntries: 256, Dir: filepath.Join(dataDir, "cache"), MaxDiskBytes: 256 << 20})
		if err != nil {
			s.shutdown()
			return nil, err
		}
		cfg := base
		cfg.QueueCapacity = 64
		cfg.Workers = 2
		cfg.Runner.Seeds = 3
		cfg.DataDir = dataDir
		cfg.Retry = service.RetryPolicy{MaxAttempts: 1}
		cfg.Cache = results
		svc, err := service.Open(cfg)
		if err != nil {
			s.shutdown()
			return nil, err
		}
		svc.Start()
		s.workers = append(s.workers, svc)
		url, err := s.serve(service.NewHandler(svc))
		if err != nil {
			s.shutdown()
			return nil, err
		}
		s.workerURLs = append(s.workerURLs, url)
	}
	s.local = service.New(service.Config{QueueCapacity: 64, Workers: 2, Runner: experiment.Runner{Seeds: 3}})
	s.local.Start()
	results, err := cache.Open(cache.Config{MaxEntries: 256})
	if err != nil {
		s.shutdown()
		return nil, err
	}
	s.coord, err = dispatch.New(dispatch.Config{
		Peers:  s.workerURLs,
		Local:  s.local,
		Cache:  results,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		s.shutdown()
		return nil, err
	}
	s.coord.Start()
	if s.coordURL, err = s.serve(dispatch.NewHandler(s.coord)); err != nil {
		s.shutdown()
		return nil, err
	}
	if err := s.waitReady(); err != nil {
		s.shutdown()
		return nil, err
	}
	return s, nil
}

func (s *stack) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for _, url := range append([]string{s.coordURL}, s.workerURLs...) {
		for {
			ok, err := ready(client, url)
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready: %v", url, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func ready(client *http.Client, url string) (bool, error) {
	resp, err := client.Get(url + "/readyz")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var h struct {
		PeersHealthy *int `json:"peers_healthy"`
		PeersTotal   int  `json:"peers_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
	if h.PeersHealthy != nil && *h.PeersHealthy != h.PeersTotal {
		return false, fmt.Errorf("%d of %d peers healthy", *h.PeersHealthy, h.PeersTotal)
	}
	return true, nil
}

// shutdown stops every server and service and waits for them.
func (s *stack) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		_ = srv.Shutdown(ctx)
	}
	s.serving.Wait()
	if s.coord != nil {
		_ = s.coord.Shutdown(ctx)
	}
	if s.local != nil {
		_ = s.local.Shutdown(ctx)
	}
	for _, w := range s.workers {
		_ = w.Shutdown(ctx)
	}
}

// finalStatus is the part of the stream's result line the benchmark reads.
type finalStatus struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at"`
	FinishedAt *time.Time      `json:"finished_at"`
	Result     json.RawMessage `json:"result"`
	Cells      json.RawMessage `json:"cells"`
}

// answer is the output part of a job: its result and cells JSON.
func (f finalStatus) answer() []byte {
	return append(append(append([]byte{}, f.Result...), '\n'), f.Cells...)
}

// request is one submission of the closed loop.
type request struct {
	client   int
	fresh    bool
	baseSeed uint64
	start    time.Time
	submitMS float64
	latency  float64 // ms, submit to the stream's result line
	received time.Time
	code     int  // submit status code
	cached   bool // the submit answered with a finished job
	err      error
	final    finalStatus
	waitSpan int // traced runs: the stream-wait span the job's simulations belong under
}

// loopResult is what one closed-loop pass produced.
type loopResult struct {
	requests []*request
	wall     float64
	cpu      float64
}

// runLoop drives the coordinator with one closed-loop client per
// connection until the deadline: each submits a spec, waits on its result
// stream, and only then submits the next.
func runLoop(s *stack, opt options, clients int, seconds float64, tr *tracer) loopResult {
	var (
		mu  sync.Mutex
		out loopResult
		wg  sync.WaitGroup
	)
	start, cpu0 := time.Now(), cpuSeconds()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer transport.CloseIdleConnections()
			client := &http.Client{Transport: transport}
			rng := rand.New(rand.NewPCG(opt.seed, uint64(c)+1))
			var completed []uint64
			for k := 0; time.Now().Before(deadline); {
				u := rng.Float64()
				r := &request{client: c}
				if u < serveFreshShare || len(completed) == 0 {
					r.fresh, r.baseSeed = true, freshSeed(opt.seed, c, k)
					k++
				} else {
					r.baseSeed = completed[rng.IntN(len(completed))]
				}
				doRequest(client, s.coordURL, r, tr)
				if r.fresh && r.err == nil {
					completed = append(completed, r.baseSeed)
				}
				mu.Lock()
				out.requests = append(out.requests, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall, out.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	return out
}

// doRequest submits r's spec and waits for the last line of its stream.
func doRequest(client *http.Client, base string, r *request, tr *tracer) {
	body, err := json.Marshal(serveSpec(r.baseSeed))
	if err != nil {
		r.err = err
		return
	}
	r.start = time.Now()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	var st finalStatus
	r.code = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body) // read to EOF so the connection is reused
	resp.Body.Close()
	submitted := time.Now()
	r.submitMS = float64(submitted.Sub(r.start).Nanoseconds()) / 1e6
	switch {
	case r.code == http.StatusTooManyRequests:
		r.err = errors.New("refused with 429")
		return
	case r.code != http.StatusAccepted && r.code != http.StatusOK:
		r.err = fmt.Errorf("submit answered %d", r.code)
		return
	case err != nil:
		r.err = fmt.Errorf("decoding submit answer: %w", err)
		return
	}
	r.cached = st.State == string(service.StateSucceeded)
	r.final, r.err = streamResult(client, base, st.ID)
	r.received = time.Now()
	r.latency = float64(r.received.Sub(r.start).Nanoseconds()) / 1e6
	if r.err == nil && r.final.State != string(service.StateSucceeded) {
		r.err = fmt.Errorf("job %s ended %s", st.ID, r.final.State)
	}
	if tr != nil {
		job := tr.add(0, "job", st.ID, r.start.UnixNano(), r.received.UnixNano())
		tr.add(job, "submit", st.ID, r.start.UnixNano(), submitted.UnixNano())
		r.waitSpan = tr.add(job, "stream_wait", st.ID, submitted.UnixNano(), r.received.UnixNano())
	}
}

// streamResult reads a job's NDJSON stream up to its result line.
func streamResult(client *http.Client, base, id string) (finalStatus, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return finalStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return finalStatus{}, fmt.Errorf("stream answered %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return finalStatus{}, fmt.Errorf("stream ended before the result line: %w", err)
		}
		var ev struct {
			Type   string      `json:"type"`
			Status finalStatus `json:"status"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return finalStatus{}, err
		}
		if ev.Type == "result" {
			_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
			return ev.Status, nil
		}
	}
}

// referenceAnswers runs every fresh spec of the loop on an in-process
// service without HTTP, journal, cache or coordinator, and returns the
// answers by base seed.
func referenceAnswers(reqs []*request, workers int) (map[uint64][]byte, error) {
	svc := service.New(service.Config{
		QueueCapacity: len(reqs) + 1,
		Workers:       workers,
		Runner:        experiment.Runner{Workers: 1},
	})
	svc.Start()
	defer svc.Shutdown(context.Background())
	jobs := map[uint64]*service.Job{}
	for _, r := range reqs {
		if !r.fresh || jobs[r.baseSeed] != nil {
			continue
		}
		job, err := svc.Submit(serveSpec(r.baseSeed))
		if err != nil {
			return nil, err
		}
		jobs[r.baseSeed] = job
	}
	out := map[uint64][]byte{}
	for seed, job := range jobs {
		for {
			st, _, changed := job.Snapshot()
			if st.State.Terminal() {
				if st.State != service.StateSucceeded {
					return nil, fmt.Errorf("reference job for base seed %d ended %s: %s", seed, st.State, st.Error)
				}
				res, err := json.Marshal(st.Output.Result)
				if err != nil {
					return nil, err
				}
				cells, err := json.Marshal(st.Output.Cells)
				if err != nil {
					return nil, err
				}
				out[seed] = append(append(res, '\n'), cells...)
				break
			}
			<-changed
		}
	}
	return out, nil
}

// checkAnswers checks every request: it must have succeeded, a fresh
// answer must equal the in-process reference for its spec (and, at the
// default seed, the pinned digest), and a repeat must be byte-equal to
// that spec's first answer.
func checkAnswers(rep *report, opt options, refs references, reqs []*request, workers int) error {
	want, err := referenceAnswers(reqs, workers)
	if err != nil {
		return err
	}
	first := map[uint64][]byte{}
	pinned := map[string]string{}
	perClient := map[int]int{}
	for _, r := range reqs {
		if r.err != nil {
			rep.check(false, "base seed %d: %v", r.baseSeed, r.err)
			continue
		}
		got := r.final.answer()
		key := strconv.FormatUint(r.baseSeed, 10)
		switch {
		case r.fresh && !bytes.Equal(got, want[r.baseSeed]):
			rep.check(false, "base seed %d: answer differs from the in-process reference", r.baseSeed)
		case !r.fresh && !bytes.Equal(got, first[r.baseSeed]):
			rep.check(false, "base seed %d: repeat differs from the first answer", r.baseSeed)
		case r.fresh && opt.seed == defaultSeed && !opt.record && refs.ServeMix[key] != "" && sha(got) != refs.ServeMix[key]:
			rep.check(false, "base seed %d: answer differs from testdata/reference.json", r.baseSeed)
		default:
			rep.check(true, "")
		}
		if r.fresh {
			first[r.baseSeed] = got
			if perClient[r.client] < servePinned {
				perClient[r.client]++
				pinned[key] = sha(got)
			}
		}
	}
	if opt.record {
		return recordReferences(func(r *references) { r.ServeMix = pinned })
	}
	return nil
}

// bootTimed boots the stack serveBoots times, keeps the last boot and
// returns the boot-to-ready times. Every boot starts from a collected heap.
func bootTimed(root string, h *serveHooks) (*stack, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := filepath.Join(root, "boot"+strconv.Itoa(i))
		runtime.GC()
		start := time.Now()
		s, err := bootStack(dir, h)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == serveBoots-1 {
			return s, times, nil
		}
		s.shutdown()
	}
}

func runServeMix(opt options) (*report, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	clients := min(2, opt.workers)
	rep := newReport()

	// A traced run measures the loop twice, untraced and traced, in the
	// same time as an untraced run measures it once.
	seconds := opt.seconds
	if opt.traced {
		seconds /= 2
	}
	s, boots, err := bootTimed(filepath.Join(root, "untraced"), nil)
	if err != nil {
		return nil, err
	}
	loop := runLoop(s, opt, clients, seconds, nil)
	s.shutdown()
	if err := checkAnswers(rep, opt, refs, loop.requests, opt.workers); err != nil {
		return nil, err
	}
	loadShape(rep, loop)

	if opt.traced {
		h := &serveHooks{rec: &layerRecorder{}, probes: newProbeSet(true, 5, 16, 1)}
		tr := &tracer{}
		traced, err := serveTraced(rep, opt, refs, filepath.Join(root, "traced"), h, tr, seconds)
		if err != nil {
			return nil, err
		}
		if err := simLayers(rep, h.probes, h.rec, traced.wall, opt.workers); err != nil {
			return nil, err
		}
		rep.set("trace.overhead_frac", meanLatency(traced)/meanLatency(loop)-1, "frac")
		return rep, tr.write("serve-mix", opt.seed)
	}

	var freshMS, hitMS []float64
	var freshSum float64
	completed := 0
	for _, r := range loop.requests {
		if r.err != nil {
			continue
		}
		completed++
		if r.fresh {
			freshMS = append(freshMS, r.latency)
			freshSum += r.latency
		} else {
			hitMS = append(hitMS, r.latency)
		}
	}
	rep.set("wall_s", meanLatency(loop)/1e3, "s")
	rep.set("cpu_s", ratio(loop.cpu, float64(completed)), "s")
	rep.set("ns_per_node_s", ratio(freshSum*1e6, float64(len(freshMS)))/serveNodeSeconds(), "ns")
	rep.set("jobs_per_s", float64(completed)/loop.wall, "1/s")
	rep.latencyMetrics(freshMS, hitMS)
	rep.set("setup_s", median(boots), "s")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	return rep, nil
}

// meanLatency is the mean submit-to-result latency of the completed
// requests, in ms.
func meanLatency(l loopResult) float64 {
	var total float64
	n := 0
	for _, r := range l.requests {
		if r.err == nil {
			total += r.latency
			n++
		}
	}
	return ratio(total, float64(n))
}

// loadShape records the closed loop's offered, completed and refused
// counts.
func loadShape(rep *report, l loopResult) {
	var completed, refused, fresh float64
	for _, r := range l.requests {
		switch {
		case r.err == nil:
			completed++
		case r.code == http.StatusTooManyRequests:
			refused++
		}
		if r.fresh {
			fresh++
		}
	}
	rep.notes["offered"] = float64(len(l.requests))
	rep.notes["completed"] = completed
	rep.notes["refused_429"] = refused
	rep.notes["repeat_share"] = 1 - ratio(fresh, float64(len(l.requests)))
}

// serveTraced boots the stack with every hook installed, runs the loop
// for seconds, checks its answers and reports the serving layers.
func serveTraced(rep *report, opt options, refs references, dir string, h *serveHooks, tr *tracer, seconds float64) (loopResult, error) {
	s, err := bootStack(dir, h)
	if err != nil {
		return loopResult{}, err
	}
	loop := runLoop(s, opt, min(2, opt.workers), seconds, tr)
	hops := hopTimes(s, loop)
	s.shutdown()
	if err := checkAnswers(rep, opt, refs, loop.requests, opt.workers); err != nil {
		return loop, err
	}
	serviceLayers(rep, s, h, tr, loop, hops)
	return loop, nil
}

// hopTimes times the same terminal-job status GET through the coordinator
// and at the owning worker, for up to 50 fresh jobs, and returns the
// differences in ms.
func hopTimes(s *stack, l loopResult) []float64 {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	ring := dispatch.NewRing(s.workerURLs, 64)
	get := func(url string) (float64, bool) {
		start := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			return 0, false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return float64(time.Since(start).Nanoseconds()) / 1e6, resp.StatusCode == http.StatusOK
	}
	var out []float64
	for _, r := range l.requests {
		if !r.fresh || r.err != nil || len(out) == 50 {
			continue
		}
		owner := ring.Owner(serveSpec(r.baseSeed).Digest(), nil)
		viaCoord, ok1 := get(s.coordURL + "/v1/jobs/" + r.final.ID)
		atWorker, ok2 := get(owner + "/v1/jobs/" + r.final.ID)
		if ok1 && ok2 {
			out = append(out, viaCoord-atWorker)
		}
	}
	return out
}

// serviceLayers reports the service, cache and dispatch metrics of a
// traced loop, and links the workers' simulations into the job spans.
func serviceLayers(rep *report, s *stack, h *serveHooks, tr *tracer, l loopResult, hops []float64) {
	runWall := map[uint64]float64{} // base seed -> summed simulation wall, ms
	for _, p := range h.probes.probes {
		runWall[p.seed] += float64(p.wallDur().Nanoseconds()) / 1e6
	}
	ring := dispatch.NewRing(s.workerURLs, 64)
	placed := map[string]int{}
	var submit, queueWait, overhead, lag []float64
	var fresh, repeats, cached float64
	jobOf := map[uint64]*request{} // base seed -> its fresh request
	for _, r := range l.requests {
		if r.err != nil {
			continue
		}
		submit = append(submit, r.submitMS)
		if !r.fresh {
			repeats++
			if r.cached {
				cached++
			}
			continue
		}
		fresh++
		f := r.final
		jobOf[r.baseSeed] = r
		placed[ring.Owner(serveSpec(r.baseSeed).Digest(), nil)]++
		if f.StartedAt != nil && f.FinishedAt != nil {
			queueWait = append(queueWait, msBetween(f.CreatedAt, *f.StartedAt))
			overhead = append(overhead, msBetween(*f.StartedAt, *f.FinishedAt)-runWall[r.baseSeed])
			lag = append(lag, msBetween(*f.FinishedAt, r.received))
		}
	}
	for _, p := range h.probes.probes {
		if r := jobOf[p.seed]; r != nil && tr != nil {
			id := r.final.ID
			run := tr.add(r.waitSpan, "worker.run", id, p.genStart, p.runEnd)
			newID := tr.add(run, "worker.simnet.New", id, p.genStart, p.runStart)
			tr.add(newID, "worker.mobility.Generate", id, p.genStart, p.genEnd)
			tr.add(run, "worker.Network.Run", id, p.runStart, p.runEnd)
		}
	}
	var most float64
	for _, n := range placed {
		most = max(most, float64(n))
	}
	rep.set("service.submit_ms", median(submit), "ms")
	rep.set("service.queue_wait_ms", median(queueWait), "ms")
	rep.set("service.exec_overhead_ms", median(overhead), "ms")
	rep.set("service.wal_sync_ms", ratio(float64(h.wal.syncNs.Load())/1e6, float64(h.wal.syncs.Load())), "ms")
	rep.set("service.wal_syncs_per_job", ratio(float64(h.wal.syncs.Load()), fresh), "count")
	rep.set("service.wal_bytes_per_job", ratio(float64(h.wal.bytes.Load()), fresh), "B")
	rep.set("cache.hit_ratio", ratio(cached, repeats), "frac")
	rep.set("dispatch.hop_ms", median(hops), "ms")
	rep.set("dispatch.stream_lag_ms", median(lag), "ms")
	rep.set("dispatch.placement_skew", ratio(most, fresh/float64(len(s.workerURLs))), "ratio")
	rep.notes["serve.fresh_jobs"] = fresh
	rep.notes["serve.repeat_jobs"] = repeats
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// serveProbe runs a short traced serving loop for the simulation
// workloads, whose own work never reaches the serving layers, so every
// traced run reports every per-layer metric. Its answers are checked like
// serve-mix's.
func serveProbe(rep *report, opt options, tr *tracer) error {
	root, err := os.MkdirTemp("", "perfbench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	h := &serveHooks{rec: &layerRecorder{}, probes: newProbeSet(true, 0, 0, 1)}
	probeOpt := opt
	probeOpt.record = false // the probe's answers are checked, never pinned
	_, err = serveTraced(rep, probeOpt, references{}, root, h, tr, probeSeconds)
	return err
}
