package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateBinding rewrites testdata/digest_version_binding.json:
// go test ./internal/service -run TestSpecDigestVersionBinding -update-digest-binding
var updateBinding = flag.Bool("update-digest-binding", false, "rewrite the digest version binding pin")

// goldenTracePath is the harness's golden trace digest file — the other
// half of the determinism contract this test binds together.
const goldenTracePath = "../harness/testdata/digests.json"

// versionBinding pins the pair (specDigestVersion, golden trace digests)
// as one unit. The two move for the same underlying reason — the engine or
// the spec canonicalization changed meaning — so a change to either file
// without acknowledging the other is almost always a forgotten step.
type versionBinding struct {
	// SpecDigestVersion is the cache/placement domain-separation tag from
	// internal/service/digest.go.
	SpecDigestVersion string `json:"spec_digest_version"`
	// TraceDigestsSHA256 is the hash of the golden trace digests in
	// internal/harness/testdata/digests.json (see goldenTraceHash).
	TraceDigestsSHA256 string `json:"trace_digests_sha256"`
}

// goldenTraceHash hashes what the engine's output determines in the golden
// file — each run's sha256 and event count, re-encoded in the file's
// indented JSON layout — and nothing else. The per-window checkpoints stored
// beside them locate divergences; they are not part of the output contract.
func goldenTraceHash(raw []byte) (string, error) {
	var golden map[string]struct {
		SHA256 string `json:"sha256"`
		Events uint64 `json:"events"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		return "", err
	}
	canon, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append(canon, '\n'))
	return hex.EncodeToString(sum[:]), nil
}

// TestSpecDigestVersionBinding fails when the golden trace digests are
// regenerated without revisiting specDigestVersion (or vice versa). An
// engine change that moves the traces invalidates every cached result
// keyed under the old spec digests; forgetting the version bump would
// keep serving those stale results. The failure message names both files
// so the fix is mechanical.
func TestSpecDigestVersionBinding(t *testing.T) {
	raw, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("reading golden trace digests: %v", err)
	}
	traceHash, err := goldenTraceHash(raw)
	if err != nil {
		t.Fatalf("parsing golden trace digests: %v", err)
	}
	current := versionBinding{
		SpecDigestVersion:  specDigestVersion,
		TraceDigestsSHA256: traceHash,
	}

	path := filepath.Join("testdata", "digest_version_binding.json")
	if *updateBinding {
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading binding pin (regenerate with -update-digest-binding): %v", err)
	}
	var pinned versionBinding
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}

	switch {
	case pinned.SpecDigestVersion != current.SpecDigestVersion && pinned.TraceDigestsSHA256 != current.TraceDigestsSHA256:
		// Both moved together — the expected shape of a deliberate engine
		// change. Only the pin needs refreshing.
		t.Fatalf("specDigestVersion (internal/service/digest.go) and the golden trace digests (%s) both changed; "+
			"if deliberate, refresh the pin with -update-digest-binding", goldenTracePath)
	case pinned.TraceDigestsSHA256 != current.TraceDigestsSHA256:
		t.Fatalf("golden trace digests (%s) changed but specDigestVersion (internal/service/digest.go) did not.\n"+
			"An engine-output change invalidates results cached under the old spec digests: bump specDigestVersion, "+
			"then refresh this pin with -update-digest-binding.\n  pinned trace hash  %s\n  current trace hash %s",
			goldenTracePath, pinned.TraceDigestsSHA256, current.TraceDigestsSHA256)
	case pinned.SpecDigestVersion != current.SpecDigestVersion:
		t.Fatalf("specDigestVersion (internal/service/digest.go) changed (%q -> %q) but the golden trace digests (%s) did not.\n"+
			"If the canonicalization change is deliberate, regenerate the spec golden file (-update) and refresh this "+
			"pin with -update-digest-binding.", pinned.SpecDigestVersion, current.SpecDigestVersion, goldenTracePath)
	}
}
