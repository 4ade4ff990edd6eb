package dispatch

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"mobic/internal/chaos"
	"mobic/internal/experiment"
	"mobic/internal/service"
)

// TestChaosSoak is the sustained-fault gate run by scripts/check.sh under
// the race detector: a three-worker cluster takes ~10 seconds of
// submissions while a probabilistic chaos schedule resets submits, fails
// failover restores, cuts streams and injects latency — and a
// worker is killed outright mid-soak. Every job must still converge to
// success, and the long-running job that straddles the kill must finish
// byte-equal to an uninterrupted reference run.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("10s chaos soak")
	}
	refJSON, _ := referenceRun(t)

	workers := []*worker{newWorker(t), newWorker(t), newWorker(t)}

	// Probabilistic but seeded: the same soak replays the same fault
	// sequence against the same operation order.
	inj := chaos.New(chaos.MustParse("seed 1234\n" +
		"http POST */jobs prob=0.1 reset\n" +
		"http POST */restore prob=0.25 error\n" +
		"body GET */stream prob=0.5 cut=256\n" +
		"http GET * prob=0.05 latency=10ms\n"))

	// A local fallback absorbs the (unlikely) submit walk where chaos
	// resets every peer's single attempt.
	local := service.New(service.Config{
		Workers: 1,
		Runner:  experiment.Runner{Seeds: 1, Workers: 1},
	})
	local.Start()
	defer local.Shutdown(context.Background())

	coord, srv, _ := newClusterCfg(t, workers, func(cfg *Config) {
		cfg.Client = &http.Client{Timeout: 2 * time.Second, Transport: inj.RoundTripper(nil)}
		cfg.Local = local
		cfg.BreakerCooldown = 200 * time.Millisecond
	})

	// The straddling job: a slow sweep whose owner dies under it.
	victim, _ := submitSpec(t, srv.URL, failoverSweep())
	coord.mu.Lock()
	owner := ""
	if j := coord.jobs[victim.ID]; j != nil {
		owner = j.peer
	}
	coord.mu.Unlock()
	if owner == "" {
		t.Fatal("victim job not tracked on a peer")
	}

	// Kill the owner as soon as it has committed work (probing it directly
	// — the chaos schedule sits only on the coordinator's client).
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(owner + "/v1/jobs/" + victim.ID)
		if err == nil {
			var ost service.Status
			err = json.NewDecoder(resp.Body).Decode(&ost)
			resp.Body.Close()
			if err == nil && (ost.Done >= 1 || ost.State.Terminal()) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("victim owner completed no cell in 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, w := range workers {
		if w.srv.URL == owner {
			w.kill()
		}
	}

	// Churn distinct quick sweeps through the degraded cluster for the
	// soak window; each must converge despite resets, latency and the
	// mid-soak failover running underneath.
	soakUntil := time.Now().Add(10 * time.Second)
	submitted := 0
	for n := 20; time.Now().Before(soakUntil); n++ {
		spec := service.JobSpec{
			Seeds: 1,
			Sweep: &service.SweepSpec{
				Scenario:   service.ScenarioSpec{N: n, Duration: 5},
				Algorithms: []string{"mobic"},
			},
		}
		st, _ := submitSpec(t, srv.URL, spec)
		fin := awaitTerminal(t, srv.URL, st.ID, 30*time.Second)
		if fin.State != service.StateSucceeded {
			t.Fatalf("soak job %d (n=%d): %s (%s)", submitted, n, fin.State, fin.Error)
		}
		submitted++
	}

	// The job that straddled the kill converged byte-equal to the
	// uninterrupted reference.
	fin := awaitTerminal(t, srv.URL, victim.ID, 60*time.Second)
	if fin.State != service.StateSucceeded {
		t.Fatalf("victim job: %s (%s)", fin.State, fin.Error)
	}
	finJSON, err := json.Marshal(fin.Output)
	if err != nil {
		t.Fatal(err)
	}
	if string(finJSON) != refJSON {
		t.Errorf("victim output diverged from reference after chaotic failover:\nref: %s\ngot: %s", refJSON, finJSON)
	}

	if inj.Fired() < 1 {
		t.Fatal("chaos schedule never fired during the soak")
	}
	t.Logf("soak: %d jobs converged, %d faults injected", submitted, inj.Fired())
}
