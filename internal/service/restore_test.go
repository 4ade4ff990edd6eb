package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mobic/internal/experiment"
)

func sweepTwoCells() JobSpec {
	return JobSpec{
		Seeds: 1,
		Sweep: &SweepSpec{
			Algorithms: []string{"mobic"},
			TxRanges:   []float64{100, 150},
		},
	}
}

// replicaImage renders a replication batch for job id: its submit record
// plus a contiguous prefix of n checkpoints.
func replicaImage(t *testing.T, id string, spec JobSpec, n int) []byte {
	t.Helper()
	recs := []record{{Type: recSubmit, Job: id, Spec: &spec}}
	for i := range n {
		recs = append(recs, record{Type: recCheckpoint, Job: id, Cell: i, Stats: &experiment.CellStats{CHChanges: float64(i + 1)}})
	}
	return replBatch(t, recs...)
}

// TestRestoreResumesFromPrefix pins where a restore starts: after the
// replica's prefix when one is held for the job, from cell 0 when none is,
// and from cell 0 when the replica fails its checks (a different spec, or
// more checkpoints than the sweep has cells).
func TestRestoreResumesFromPrefix(t *testing.T) {
	other := sweepTwoCells()
	other.Sweep.TxRanges = []float64{100, 160}
	cases := []struct {
		name    string
		replica []byte // nil = no replica held
		want    int64
	}{
		{"replica prefix", replicaImage(t, "ffee00112233aabb", sweepTwoCells(), 1), 1},
		{"no replica", nil, 0},
		{"replica of another spec", replicaImage(t, "ffee00112233aabb", other, 1), 0},
		{"replica beyond the cell count", replicaImage(t, "ffee00112233aabb", sweepTwoCells(), 3), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var startCell atomic.Int64
			capture := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
				startCell.Store(int64(base.StartCell))
				return &Output{}, nil
			}
			svc := New(Config{Execute: capture})
			svc.Start()
			defer func() { _ = svc.Shutdown(context.Background()) }()
			if tc.replica != nil {
				if _, err := svc.Replicas().Apply("ffee00112233aabb", tc.replica, time.Now()); err != nil {
					t.Fatal(err)
				}
			}

			job, existed, err := svc.Restore("ffee00112233aabb", sweepTwoCells(), "")
			if err != nil || existed {
				t.Fatalf("Restore: existed=%v err=%v", existed, err)
			}
			if job.ID() != "ffee00112233aabb" {
				t.Fatalf("restored job got ID %s", job.ID())
			}
			if st := waitTerminal(t, job); st.State != StateSucceeded {
				t.Fatalf("restored job %s: %s", st.State, st.Error)
			}
			if sc := startCell.Load(); sc != tc.want {
				t.Fatalf("runner StartCell = %d, want %d", sc, tc.want)
			}

			// Replaying the restore is idempotent.
			again, existed, err := svc.Restore("ffee00112233aabb", sweepTwoCells(), "")
			if err != nil || !existed || again.ID() != job.ID() {
				t.Fatalf("replayed Restore: job=%v existed=%v err=%v", again, existed, err)
			}
		})
	}
}

func TestRestoreRejectsBadInput(t *testing.T) {
	svc := New(Config{Execute: instantExecute(1)})
	svc.Start()
	defer func() { _ = svc.Shutdown(context.Background()) }()

	cases := []struct {
		name    string
		id      string
		spec    JobSpec
		replica string
	}{
		{"empty id", "", sweepTwoCells(), ""},
		{"long id", strings.Repeat("a", 65), sweepTwoCells(), ""},
		{"invalid spec", "abc123", JobSpec{}, ""},
		{"relative replica", "abc123", sweepTwoCells(), "peer-b/v1"},
	}
	for _, tc := range cases {
		if _, _, err := svc.RestoreWith(tc.id, tc.spec, SubmitOpts{Replica: tc.replica}); err == nil {
			t.Errorf("%s: Restore accepted", tc.name)
		}
	}
}

// TestHTTPCheckpointExportAndRestore drives failover state transfer over
// HTTP: worker A runs a sweep partway with worker B as its replica target,
// its checkpoint reaches B through POST /v1/replica/{id}, and a restore on
// B resumes after it.
func TestHTTPCheckpointExportAndRestore(t *testing.T) {
	var startCell atomic.Int64
	checkpointing := func(ctx context.Context, spec JobSpec, base experiment.Runner, progress func(done, total int)) (*Output, error) {
		startCell.Store(int64(base.StartCell))
		if base.Checkpoint != nil && base.StartCell == 0 {
			base.Checkpoint(0, experiment.CellStats{CHChanges: 1})
		}
		return &Output{}, nil
	}
	_, srvA := newTestAPI(t, Config{Execute: checkpointing})
	_, srvB := newTestAPI(t, Config{Execute: checkpointing})

	body, _ := json.Marshal(sweepTwoCells())
	req, err := http.NewRequest(http.MethodPost, srvA.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Mobic-Replica", srvB.URL)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	getStatus(t, srvA, st.ID)

	// A's checkpoint lands on B asynchronously.
	var view ReplicaView
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get(srvB.URL + "/v1/replica/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		if len(view.Cells) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica on B holds %d cells, want 1", len(view.Cells))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restore on B under the same job ID: it resumes from the replica.
	restoreBody, _ := json.Marshal(map[string]any{"spec": view.Spec, "key": view.Key})
	resp, err = http.Post(srvB.URL+"/v1/jobs/"+st.ID+"/restore", "application/json", bytes.NewReader(restoreBody))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("restore status = %d", resp.StatusCode)
	}
	restored := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if restored.ID != st.ID {
		t.Fatalf("restored under ID %s, want %s", restored.ID, st.ID)
	}
	if fin := getStatus(t, srvB, st.ID); fin.State != StateSucceeded {
		t.Fatalf("restored job %s: %s", fin.State, fin.Error)
	}
	if sc := startCell.Load(); sc != 1 {
		t.Fatalf("worker B StartCell = %d, want 1", sc)
	}
}
