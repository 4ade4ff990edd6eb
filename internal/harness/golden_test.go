package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden digest file")

const goldenPath = "testdata/digests.json"

// goldenDigest is one golden-file entry: a run's digest plus its window
// checkpoints (Digester.Windows), which locate where a drifted run first
// diverged.
type goldenDigest struct {
	Digest
	Windows []string `json:"windows"`
}

// firstDivergence describes the first window whose checkpoint differs
// between the golden and the computed run.
func firstDivergence(want, got []string) string {
	k := 0
	for k < len(want) && k < len(got) && want[k] == got[k] {
		k++
	}
	if k == len(want) && k == len(got) {
		return "no window (checkpoints agree)"
	}
	return fmt.Sprintf("[%g s, %g s)", float64(k)*windowSeconds, float64(k+1)*windowSeconds)
}

// loadGoldenDigests reads the committed golden digest file.
func loadGoldenDigests(t *testing.T) map[string]goldenDigest {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (refresh with -update): %v", err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	return want
}

// computeGoldenDigests runs every pinned (workload, algorithm, seed) cell
// and returns its digest, keyed by GoldenKey. Runs execute in parallel —
// each is an independent single-threaded simulation.
func computeGoldenDigests(t *testing.T) map[string]goldenDigest {
	t.Helper()
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		out = make(map[string]goldenDigest)
	)
	for _, r := range GoldenRuns() {
		for _, seed := range GoldenSeeds() {
			w, alg, seed := r.Workload, r.Algorithm, seed
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg, err := w.Config(alg, seed)
				if err != nil {
					t.Errorf("%s/%s: %v", w.Name, alg.Name, err)
					return
				}
				d, _, err := runDigester(cfg)
				if err != nil {
					t.Errorf("%s/%s: %v", w.Name, alg.Name, err)
					return
				}
				dig := goldenDigest{Digest: Digest{SHA256: d.Sum(), Events: d.Count()}, Windows: d.Windows()}
				mu.Lock()
				out[GoldenKey(w.Name, alg.Name, seed)] = dig
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return out
}

// TestGoldenDigests is the cross-run determinism anchor: the digest of every
// pinned workload must match the committed golden file byte for byte. An
// intentional behaviour change refreshes the file with
//
//	go test ./internal/harness -run TestGoldenDigests -update
//
// and the diff of testdata/digests.json documents exactly which (workload,
// algorithm, seed) cells moved. A drifted digest is reported with the first
// 10 s window of simulated time whose checkpoint differs.
func TestGoldenDigests(t *testing.T) {
	got := computeGoldenDigests(t)
	if t.Failed() {
		return
	}

	if *update {
		// encoding/json writes map keys sorted, so the file diffs cleanly.
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenPath, len(got))
		return
	}

	want := loadGoldenDigests(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, harness pins %d (refresh with -update)", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: in golden file but no longer pinned", key)
			continue
		}
		if g.Digest != w.Digest {
			t.Errorf("%s: digest drifted, first divergence in %s\n  golden: %s (%d events)\n  got:    %s (%d events)",
				key, firstDivergence(w.Windows, g.Windows), w.SHA256, w.Events, g.SHA256, g.Events)
		} else if !slices.Equal(g.Windows, w.Windows) {
			t.Errorf("%s: digest matches but window checkpoints differ from %s (refresh with -update)",
				key, firstDivergence(w.Windows, g.Windows))
		}
	}
}
