package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mobic/internal/experiment"
	"mobic/internal/obs"
	"mobic/internal/simnet"
)

// replSweep is a small two-cell sweep: enough checkpoints to replicate,
// fast enough for a unit test.
func replSweep() JobSpec {
	return JobSpec{
		Seeds: 1,
		Sweep: &SweepSpec{
			Scenario:   ScenarioSpec{N: 10, Duration: 5},
			Algorithms: []string{"mobic"},
			TxRanges:   []float64{100, 140},
		},
	}
}

// replBatch renders records as one MOBICREPL1 wire body, the shape the
// replicator POSTs.
func replBatch(t *testing.T, recs ...record) []byte {
	t.Helper()
	var body bytes.Buffer
	body.Write(replMagic)
	for _, rec := range recs {
		if err := encodeFrame(&body, rec); err != nil {
			t.Fatal(err)
		}
	}
	return body.Bytes()
}

func TestReplicaStoreApply(t *testing.T) {
	spec := replSweep()
	cs := experiment.CellStats{}
	sub := record{Type: recSubmit, Job: "j1", Spec: &spec, Key: "k"}
	cp := func(i int) record { return record{Type: recCheckpoint, Job: "j1", Cell: i, Stats: &cs} }
	now := time.Unix(1000, 0)

	rs := newReplicaStore(2, obs.Nop{})
	n, err := rs.Apply("j1", replBatch(t, sub, cp(0), cp(1)), now)
	if err != nil || n != 3 {
		t.Fatalf("Apply = (%d, %v), want (3, nil)", n, err)
	}
	if _, key, cps, ok := rs.Lookup("j1"); !ok || key != "k" || len(cps) != 2 {
		t.Fatalf("Lookup after apply: ok=%v key=%q cps=%d", ok, key, len(cps))
	}

	// A stale retransmission (shorter image) cannot shrink the replica; the
	// ack still covers what is held.
	n, err = rs.Apply("j1", replBatch(t, sub, cp(0)), now.Add(time.Second))
	if err != nil || n != 3 {
		t.Fatalf("stale Apply = (%d, %v), want (3, nil)", n, err)
	}
	if _, _, cps, _ := rs.Lookup("j1"); len(cps) != 2 {
		t.Fatalf("stale retransmission shrank the replica to %d cells", len(cps))
	}

	// Non-contiguous checkpoints are dropped, same as journal replay.
	n, err = rs.Apply("j2", replBatch(t, record{Type: recSubmit, Job: "j2", Spec: &spec}, cp(1)), now)
	if err != nil || n != 1 {
		t.Fatalf("gapped Apply = (%d, %v), want (1, nil)", n, err)
	}

	// Batches without a submit record or without any valid frame error out.
	if _, err := rs.Apply("j3", replBatch(t, cp(0)), now); err == nil {
		t.Fatal("batch with no submit record accepted")
	}
	if _, err := rs.Apply("j3", []byte("junk"), now); err == nil {
		t.Fatal("garbage batch accepted")
	}

	// The store is bounded: a third id evicts the least recently updated.
	if _, err := rs.Apply("j3", replBatch(t, record{Type: recSubmit, Job: "j3", Spec: &spec}), now.Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (bounded)", rs.Len())
	}
	if _, _, _, ok := rs.Lookup("j2"); ok {
		t.Fatal("oldest entry survived eviction")
	}

	// Prune drops entries idle past the TTL.
	rs.Prune(time.Minute, now.Add(time.Hour))
	if rs.Len() != 0 {
		t.Fatalf("Len after prune = %d, want 0", rs.Len())
	}
}

// TestReplicationStreamsAndRestores is the service-level replication
// round trip: worker A streams its checkpoints to worker B as it journals
// them, and after A "dies" a restore on B resumes from the replica —
// producing output byte-equal to A's. A restore on worker C, which holds
// no replica, re-runs every cell and is byte-equal to A's output too.
func TestReplicationStreamsAndRestores(t *testing.T) {
	regB := obs.NewRegistry()
	b := New(Config{Workers: 1, Runner: experiment.Runner{Seeds: 1, Workers: 1}, Obs: regB})
	b.Start()
	defer b.Shutdown(context.Background())
	srvB := httptest.NewServer(NewHandler(b))
	defer srvB.Close()

	a := New(Config{Workers: 1, Runner: experiment.Runner{Seeds: 1, Workers: 1}})
	a.Start()
	defer a.Shutdown(context.Background())

	job, _, err := a.SubmitWith(replSweep(), SubmitOpts{Key: "run-1", Replica: srvB.URL})
	if err != nil {
		t.Fatal(err)
	}
	var stA Status
	for {
		st, _, notify := job.Snapshot()
		if st.State.Terminal() {
			stA = st
			break
		}
		<-notify
	}
	if stA.State != StateSucceeded {
		t.Fatalf("job on A: %s (%s)", stA.State, stA.Error)
	}
	outA, err := json.Marshal(stA.Output)
	if err != nil {
		t.Fatal(err)
	}

	// B holds the full replica (replication is async; the final flush races
	// the terminal snapshot above).
	deadline := time.Now().Add(5 * time.Second)
	for {
		spec, key, cps, ok := b.Replicas().Lookup(job.ID())
		if ok && len(cps) == 2 {
			if key != "run-1" {
				t.Fatalf("replica key = %q, want run-1", key)
			}
			if spec.Digest() != replSweep().Digest() {
				t.Fatal("replica spec digest mismatch")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica incomplete on B: ok=%v cps=%d", ok, len(cps))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Failover shape: the restore on B resumes from the replica.
	restored, existed, err := b.RestoreWith(job.ID(), replSweep(), SubmitOpts{Key: "run-1"})
	if err != nil || existed {
		t.Fatalf("RestoreWith = (existed=%v, %v)", existed, err)
	}
	if stB := waitTerminal(t, restored); stB.State != StateSucceeded {
		t.Fatalf("restored job on B: %s (%s)", stB.State, stB.Error)
	} else if outB, err := json.Marshal(stB.Output); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(outA, outB) {
		t.Errorf("replica-restored output differs:\nA: %s\nB: %s", outA, outB)
	}
	if got := regB.Counter(obs.ReplRestores); got != 1 {
		t.Errorf("ReplRestores = %d, want 1", got)
	}

	// No replica held: the restore on C re-runs both cells from scratch.
	var simulated atomic.Int64
	regC := obs.NewRegistry()
	c := New(Config{
		Workers: 1,
		Runner:  experiment.Runner{Seeds: 1, Workers: 1, Mutate: func(*simnet.Config) { simulated.Add(1) }},
		Obs:     regC,
	})
	c.Start()
	defer c.Shutdown(context.Background())
	rerun, _, err := c.Restore(job.ID(), replSweep(), "run-1")
	if err != nil {
		t.Fatal(err)
	}
	if stC := waitTerminal(t, rerun); stC.State != StateSucceeded {
		t.Fatalf("restored job on C: %s (%s)", stC.State, stC.Error)
	} else if outC, err := json.Marshal(stC.Output); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(outA, outC) {
		t.Errorf("re-run output differs:\nA: %s\nC: %s", outA, outC)
	}
	if got := simulated.Load(); got != 2 {
		t.Errorf("C simulated %d cells, want 2 (full re-run without a replica)", got)
	}
	if got := regC.Counter(obs.ReplRestores); got != 0 {
		t.Errorf("C ReplRestores = %d, want 0", got)
	}
}

// TestReplicaHTTPEndpoints covers the wire surface: PUT-shaped POSTs of
// replication batches and the replica debug GET.
func TestReplicaHTTPEndpoints(t *testing.T) {
	svc := New(Config{Workers: 1, Runner: experiment.Runner{Seeds: 1, Workers: 1}})
	svc.Start()
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	spec := replSweep()
	cs := experiment.CellStats{}
	body := replBatch(t,
		record{Type: recSubmit, Job: "abc123", Spec: &spec, Key: "k"},
		record{Type: recCheckpoint, Job: "abc123", Cell: 0, Stats: &cs},
	)
	resp, err := srv.Client().Post(srv.URL+"/v1/replica/abc123", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Records int `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || ack.Records != 2 {
		t.Fatalf("replica POST = %d records=%d, want 200 records=2", resp.StatusCode, ack.Records)
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/replica/abc123")
	if err != nil {
		t.Fatal(err)
	}
	var view ReplicaView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.ID != "abc123" || view.Key != "k" || len(view.Cells) != 1 {
		t.Fatalf("replica GET = %+v", view)
	}

	// Garbage batches are rejected, unknown replicas are 404.
	resp, err = srv.Client().Post(srv.URL+"/v1/replica/abc123", "application/octet-stream", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage replica POST = %d, want 400", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/v1/replica/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown replica GET = %d, want 404", resp.StatusCode)
	}
}
