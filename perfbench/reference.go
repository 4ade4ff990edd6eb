package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"os"
)

// referencePath is where --record rewrites the reference, relative to the
// repository root the benchmark runs from.
const referencePath = "perfbench/testdata/reference.json"

//go:embed testdata/reference.json
var referenceJSON []byte

// references are the outputs pinned at the default seed: each paper
// figure's JSON, the city-scale run's Result, and the SHA-256 of the
// serve-mix answers of the first fresh specs of each client, keyed by the
// spec's base seed.
type references struct {
	PaperFigs map[string]json.RawMessage `json:"paper-figs,omitempty"`
	CityScale json.RawMessage            `json:"city-scale,omitempty"`
	ServeMix  map[string]string          `json:"serve-mix,omitempty"`
}

func loadReferences() (references, error) {
	var r references
	err := json.Unmarshal(referenceJSON, &r)
	return r, err
}

// sameJSON reports whether got (compact JSON as encoding/json writes it)
// equals the pinned want byte for byte, ignoring want's indentation.
func sameJSON(got []byte, want json.RawMessage) bool {
	var buf bytes.Buffer
	if err := json.Compact(&buf, want); err != nil {
		return false
	}
	return bytes.Equal(got, buf.Bytes())
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// recordReferences rewrites the reference file with update applied.
func recordReferences(update func(*references)) error {
	var r references
	if data, err := os.ReadFile(referencePath); err == nil {
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
	}
	update(&r)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(data, '\n'), 0o644)
}
