package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mobic/internal/experiment"
	"mobic/internal/harness"
	"mobic/internal/simnet"
	"mobic/internal/trace"
)

// digestCollector taps every simulation a runner materializes and keeps a
// canonical trace digest per (algorithm, tx range, seed) cell — the oracle
// that proves a resumed run executed exactly the cells it claims to, with
// exactly the behaviour of an uninterrupted run. Install via Runner.Mutate.
type digestCollector struct {
	mu sync.Mutex
	ds map[string]*harness.Digester
}

func newDigestCollector() *digestCollector {
	return &digestCollector{ds: make(map[string]*harness.Digester)}
}

func (c *digestCollector) mutate(cfg *simnet.Config) {
	key := fmt.Sprintf("%s|%g|%d", cfg.Algorithm.Name, cfg.TxRange, cfg.Seed)
	d := harness.NewDigester()
	c.mu.Lock()
	c.ds[key] = d
	c.mu.Unlock()
	prev := cfg.Observer
	cfg.Observer = func(ev trace.Event) {
		d.Observe(ev)
		if prev != nil {
			prev(ev)
		}
	}
}

// sums finalizes and returns all collected digests. Call once, after every
// tapped run has finished.
func (c *digestCollector) sums() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.ds))
	for k, d := range c.ds {
		out[k] = d.Sum()
	}
	return out
}

// recoverySweep is a 4-cell sweep small enough to simulate for real in a
// test: one algorithm over four transmission ranges, one seed per cell.
func recoverySweep() JobSpec {
	return JobSpec{
		Sweep: &SweepSpec{
			Scenario:   ScenarioSpec{N: 12, Duration: 20, Warmup: 2},
			Algorithms: []string{"mobic"},
			TxRanges:   []float64{60, 100, 140, 180},
		},
		Seeds: 1,
	}
}

// singleRunner is a serial runner so the per-cell Digesters (which are not
// concurrency-safe) see single-threaded runs.
func singleRunner(c *digestCollector) experiment.Runner {
	return experiment.Runner{Seeds: 1, Workers: 1, Mutate: c.mutate}
}

// TestCrashRecoveryResumesFromCheckpoint is the end-to-end durability
// acceptance test. A daemon is "killed" (abandoned without Shutdown) while
// a 4-cell sweep has checkpointed cells 0 and 1; a fresh Service opened on
// the same data dir must re-enqueue the job, resume at cell 2, and finish
// with output byte-identical to an uninterrupted run. Canonical trace
// digests prove both halves of the claim: the two executed cells behaved
// exactly like the reference run's, and the two checkpointed cells were
// never re-simulated.
func TestCrashRecoveryResumesFromCheckpoint(t *testing.T) {
	// Reference: the same sweep, uninterrupted, in-memory.
	refC := newDigestCollector()
	ref := New(Config{Workers: 1, Runner: singleRunner(refC)})
	ref.Start()
	defer ref.Shutdown(context.Background())
	refJob, err := ref.Submit(recoverySweep())
	if err != nil {
		t.Fatal(err)
	}
	refSt := waitTerminal(t, refJob)
	if refSt.State != StateSucceeded {
		t.Fatalf("reference run: %s (%s)", refSt.State, refSt.Error)
	}
	if len(refSt.Cells) != 4 {
		t.Fatalf("reference cells = %d, want 4", len(refSt.Cells))
	}
	refDigests := refC.sums()

	// Interrupted run: a stub executor checkpoints cells 0 and 1 through
	// the service's real checkpoint wiring (journal + job state), then
	// hangs like a wedged simulation until the "crash".
	dir := t.TempDir()
	checkpointed := make(chan struct{})
	stub := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		base.Checkpoint(0, refSt.Cells[0])
		base.Checkpoint(1, refSt.Cells[1])
		close(checkpointed)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	svc1, err := Open(Config{DataDir: dir, Workers: 1, Execute: stub})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Start()
	job1, err := svc1.Submit(recoverySweep())
	if err != nil {
		t.Fatal(err)
	}
	<-checkpointed
	// "SIGKILL": abandon svc1 without Shutdown — nothing is flushed or
	// finalized beyond what the WAL already fsync'd. (A bounded Shutdown in
	// cleanup only unwedges the leaked worker goroutine.)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		_ = svc1.Shutdown(ctx)
	})

	// Reboot on the same data dir with the real executor.
	resC := newDigestCollector()
	svc2, err := Open(Config{DataDir: dir, Workers: 1, Runner: singleRunner(resC)})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc2.RecoveredJobs(); got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}
	svc2.Start()
	defer svc2.Shutdown(context.Background())

	job2, ok := svc2.Get(job1.ID())
	if !ok {
		t.Fatalf("job %s not restored from journal", job1.ID())
	}
	st2 := waitTerminal(t, job2)
	if st2.State != StateSucceeded {
		t.Fatalf("resumed run: %s (%s)", st2.State, st2.Error)
	}
	if st2.Attempt != 2 {
		t.Errorf("attempt = %d, want 2 (one pre-crash, one post-recovery)", st2.Attempt)
	}

	// Byte-identical output: resume-equals-rerun.
	refJSON, err := json.Marshal(refSt.Output)
	if err != nil {
		t.Fatal(err)
	}
	resJSON, err := json.Marshal(st2.Output)
	if err != nil {
		t.Fatal(err)
	}
	if string(refJSON) != string(resJSON) {
		t.Errorf("resumed output differs from uninterrupted run:\nref: %s\ngot: %s", refJSON, resJSON)
	}

	// The resumed daemon must have simulated exactly cells 2 and 3 —
	// with traces byte-equal to the reference run's.
	resDigests := resC.sums()
	if len(resDigests) != 2 {
		t.Fatalf("resumed run simulated %d cells (%v), want exactly 2 (checkpointed cells must be skipped)", len(resDigests), resDigests)
	}
	for key, sum := range resDigests {
		if refDigests[key] == "" {
			t.Errorf("resumed run simulated unexpected cell %s", key)
			continue
		}
		if sum != refDigests[key] {
			t.Errorf("cell %s: trace digest mismatch\nref: %s\ngot: %s", key, refDigests[key], sum)
		}
	}
}

// TestTornWALRecovery truncates the WAL mid-record — the torn write a
// crash can leave behind — and checks the reopened service falls back to
// the last intact record: the job whose finish record was torn away is
// simply run again.
func TestTornWALRecovery(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(Config{DataDir: dir, Execute: instantExecute(1)})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Start()
	job, err := svc1.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateSucceeded {
		t.Fatalf("state = %s", st.State)
	}
	if err := svc1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: the finish record loses its last bytes.
	path := filepath.Join(dir, "journal.wal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	svc2, err := Open(Config{DataDir: dir, Execute: instantExecute(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc2.RecoveredJobs(); got != 1 {
		t.Fatalf("recovered %d jobs, want 1 (torn finish record)", got)
	}
	svc2.Start()
	defer svc2.Shutdown(context.Background())
	job2, ok := svc2.Get(job.ID())
	if !ok {
		t.Fatal("job lost with the torn tail")
	}
	if st := waitTerminal(t, job2); st.State != StateSucceeded {
		t.Errorf("re-run after torn WAL: %s (%s)", st.State, st.Error)
	}
}

// TestRetryAttemptSurvivesRestart: a job parked in backoff when the daemon
// dies must come back with its attempt count intact, so MaxAttempts bounds
// executions across restarts, not per boot.
func TestRetryAttemptSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	failing := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		return nil, errors.New("transient glitch")
	}
	// BaseDelay of an hour parks the retry so the "crash" happens mid-wait.
	svc1, err := Open(Config{
		DataDir: dir, Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour},
		Execute: failing,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Start()
	job, err := svc1.Submit(specFig3())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for attempt 1 to fail and the retry to be journaled (the job
	// goes back to queued with the error visible).
	deadline := time.After(10 * time.Second)
	for {
		st, _, notify := job.Snapshot()
		if st.Attempt == 1 && st.State == StateQueued && st.Error != "" {
			break
		}
		select {
		case <-notify:
		case <-deadline:
			t.Fatalf("job never reached retry wait: %+v", st)
		}
	}
	t.Cleanup(func() { _ = svc1.Shutdown(context.Background()) })

	svc2, err := Open(Config{
		DataDir: dir, Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3},
		Execute: instantExecute(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc2.RecoveredJobs(); got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}
	svc2.Start()
	defer svc2.Shutdown(context.Background())
	job2, ok := svc2.Get(job.ID())
	if !ok {
		t.Fatal("retrying job not restored")
	}
	st := waitTerminal(t, job2)
	if st.State != StateSucceeded {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if st.Attempt != 2 {
		t.Errorf("attempt = %d, want 2 (count must survive the restart)", st.Attempt)
	}
}

// TestPoisonedAtBoot: a job that crash-looped the daemon through its whole
// attempt budget must be quarantined at recovery instead of being handed to
// the worker pool again.
func TestPoisonedAtBoot(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := specFig3()
	now := time.Now().UTC()
	for _, rec := range []record{
		{Type: recSubmit, Job: "cafecafe", Time: now, Spec: &spec},
		{Type: recStart, Job: "cafecafe", Time: now, Attempt: 1},
		{Type: recRetry, Job: "cafecafe", Time: now, Attempt: 1, Error: "killed the daemon"},
		{Type: recStart, Job: "cafecafe", Time: now, Attempt: 2},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	svc, err := Open(Config{DataDir: dir, Retry: RetryPolicy{MaxAttempts: 2}, Execute: instantExecute(1)})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Shutdown(context.Background())
	if got := svc.RecoveredJobs(); got != 0 {
		t.Errorf("recovered %d jobs, want 0 (job must be quarantined, not re-run)", got)
	}
	job, ok := svc.Get("cafecafe")
	if !ok {
		t.Fatal("poisoned job not queryable")
	}
	st, _, _ := job.Snapshot()
	if st.State != StatePoisoned {
		t.Fatalf("state = %s, want poisoned", st.State)
	}
	if got := svc.Metrics().poisoned.Load(); got != 1 {
		t.Errorf("poisoned counter = %d, want 1", got)
	}
}

// TestCompactionDoesNotLoseConcurrentRecords regression-tests the
// snapshot/append race: the janitor compacts the WAL from a store snapshot,
// and a record fsync'd between the snapshot and the swap — a submit
// acknowledged before store.Put, a finish journaled before job.finish —
// must not be erased by the rewrite. The janitor is tuned to compact every
// millisecond while submitters and workers hammer the journal; after a
// restart every acknowledged job must still exist and be terminal.
func TestCompactionDoesNotLoseConcurrentRecords(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(Config{
		DataDir:       dir,
		Workers:       4,
		QueueCapacity: 256,
		EvictEvery:    time.Millisecond, // compaction check every tick
		CompactBytes:  1,                // always over threshold
		Execute:       instantExecute(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Start()

	const submitters, perSubmitter = 8, 25
	ids := make([][]string, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				for {
					job, _, err := svc1.SubmitKey(specFig3(), fmt.Sprintf("key-%d-%d", g, i))
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("submit %d/%d: %v", g, i, err)
						return
					}
					ids[g] = append(ids[g], job.ID())
					break
				}
			}
		}(g)
	}
	wg.Wait()
	for _, group := range ids {
		for _, id := range group {
			job, ok := svc1.Get(id)
			if !ok {
				t.Fatalf("job %s vanished before restart", id)
			}
			waitTerminal(t, job)
		}
	}
	if err := svc1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart: every acknowledged job must have survived compaction.
	svc2, err := Open(Config{DataDir: dir, Execute: instantExecute(1)})
	if err != nil {
		t.Fatal(err)
	}
	svc2.Start()
	defer svc2.Shutdown(context.Background())
	if got := svc2.RecoveredJobs(); got != 0 {
		t.Errorf("recovered %d jobs, want 0 (all finished before shutdown)", got)
	}
	for _, group := range ids {
		for _, id := range group {
			job, ok := svc2.Get(id)
			if !ok {
				t.Errorf("job %s lost: compaction erased an acknowledged record", id)
				continue
			}
			if st, _, _ := job.Snapshot(); st.State != StateSucceeded {
				t.Errorf("job %s state = %s after restart, want succeeded", id, st.State)
			}
		}
	}
}

// TestIdempotencyKeySurvivesRestart: replay protection must hold across a
// daemon restart, or a client retrying into a fresh boot double-submits.
func TestIdempotencyKeySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(Config{DataDir: dir, Execute: instantExecute(1)})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Start()
	job, existed, err := svc1.SubmitKey(specFig3(), "run-42")
	if err != nil || existed {
		t.Fatalf("first submit: existed=%v err=%v", existed, err)
	}
	waitTerminal(t, job)
	if err := svc1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, err := Open(Config{DataDir: dir, Execute: instantExecute(1)})
	if err != nil {
		t.Fatal(err)
	}
	svc2.Start()
	defer svc2.Shutdown(context.Background())
	again, existed, err := svc2.SubmitKey(specFig3(), "run-42")
	if err != nil {
		t.Fatal(err)
	}
	if !existed || again.ID() != job.ID() {
		t.Errorf("replayed submit: existed=%v id=%s, want existed=true id=%s", existed, again.ID(), job.ID())
	}
}

// TestCompactBytesThreshold checks that Config.CompactBytes actually gates
// the janitor's compaction (the -wal-compact-bytes flag threads here): with
// a tiny threshold the WAL shrinks to the live store's footprint once jobs
// expire, while an effectively-infinite threshold leaves every historical
// record on disk — and the compacted journal still replays cleanly.
func TestCompactBytesThreshold(t *testing.T) {
	load := func(threshold int64) (*Service, string) {
		dir := t.TempDir()
		svc, err := Open(Config{
			DataDir:      dir,
			Workers:      2,
			EvictEvery:   2 * time.Millisecond,
			TTL:          5 * time.Millisecond,
			CompactBytes: threshold,
			Execute:      instantExecute(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		svc.Start()
		for i := 0; i < 30; i++ {
			job, _, err := svc.SubmitKey(specFig3(), fmt.Sprintf("compact-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			waitTerminal(t, job)
		}
		return svc, dir
	}

	tiny, tinyDir := load(1)
	deadline := time.Now().Add(10 * time.Second)
	for tiny.journal.Size() > 1024 {
		if time.Now().After(deadline) {
			t.Fatalf("tiny threshold never compacted: WAL still %d bytes", tiny.journal.Size())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := tiny.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	huge, _ := load(1 << 30)
	time.Sleep(20 * time.Millisecond) // several janitor ticks; must NOT compact
	if got := huge.journal.Size(); got < 4096 {
		t.Errorf("huge threshold compacted anyway: WAL %d bytes", got)
	}
	if err := huge.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The aggressively compacted journal must still boot.
	re, err := Open(Config{DataDir: tinyDir, Execute: instantExecute(1)})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	if n := re.RecoveredJobs(); n != 0 {
		t.Errorf("recovered %d jobs from a fully-terminal compacted WAL, want 0", n)
	}
	re.Start()
	if err := re.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPreV4WALWithTilesReplays pins the journal side of the tiled
// scheduler's removal: journal decoding is lenient, so a WAL written before
// the removal, whose submit record still carries "tiles": 4, replays, runs
// and finishes with output byte-equal to the same spec without it.
func TestPreV4WALWithTilesReplays(t *testing.T) {
	ref := New(Config{Workers: 1, Runner: singleRunner(newDigestCollector())})
	ref.Start()
	defer ref.Shutdown(context.Background())
	refJob, err := ref.Submit(recoverySweep())
	if err != nil {
		t.Fatal(err)
	}
	refSt := waitTerminal(t, refJob)
	if refSt.State != StateSucceeded {
		t.Fatalf("reference run: %s (%s)", refSt.State, refSt.Error)
	}

	spec := recoverySweep()
	payload, err := json.Marshal(record{Type: recSubmit, Job: "0ld7113d", Time: time.Now().UTC(), Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(payload, &raw); err != nil {
		t.Fatal(err)
	}
	raw["spec"].(map[string]any)["tiles"] = 4
	if payload, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), append(append([]byte{}, journalMagic...), frame...), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := Open(Config{DataDir: dir, Workers: 1, Runner: singleRunner(newDigestCollector())})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.RecoveredJobs(); got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}
	svc.Start()
	defer svc.Shutdown(context.Background())
	job, ok := svc.Get("0ld7113d")
	if !ok {
		t.Fatal("replayed job not found")
	}
	st := waitTerminal(t, job)
	if st.State != StateSucceeded || len(st.Cells) != 4 {
		t.Fatalf("replayed job: %s (%s), %d cells", st.State, st.Error, len(st.Cells))
	}
	got, _ := json.Marshal(st.Output)
	want, _ := json.Marshal(refSt.Output)
	if string(got) != string(want) {
		t.Fatalf("replayed output differs from the tiles-free run:\n  got  %s\n  want %s", got, want)
	}
}
