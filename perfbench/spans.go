package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// job share Trace; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the benchmark ends.
// A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name, traceID string, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trace: traceID, Start: start, End: end})
	return id
}

// open starts a span now; close ends it.
func (t *tracer) open(parent int, name, traceID string) int {
	now := time.Now().UnixNano()
	return t.add(parent, name, traceID, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Now().UnixNano()
	t.mu.Unlock()
}

// spanSummary is the per-name aggregate written next to the spans.
type spanSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes returns, per span name, the total duration and the self time:
// each span's duration minus the part of it its children cover (children
// running in parallel are merged, not double-counted).
func (t *tracer) selfTimes() map[string]*spanSummary {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*spanSummary{}
	for _, s := range t.spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		dur := s.End - s.Start
		covered := coveredWithin(children[s.ID], s.Start, s.End)
		sum.Count++
		sum.TotalS += float64(dur) / 1e9
		sum.SelfS += float64(dur-covered) / 1e9
	}
	return out
}

// coveredWithin returns how many nanoseconds of [lo, hi] the union of the
// intervals covers.
func coveredWithin(iv [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var covered, cur int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return covered
}

// write saves the spans and their self-time summary under
// .bench_build/trace/ in the working directory.
func (t *tracer) write(workload string, seed uint64) error {
	if t == nil {
		return nil
	}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string                  `json:"workload"`
		Seed     uint64                  `json:"seed"`
		Summary  map[string]*spanSummary `json:"summary"`
		Spans    []span                  `json:"spans"`
	}{workload, seed, t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	name := filepath.Join(dir, workload+"-seed"+strconv.FormatUint(seed, 10)+".json")
	return os.WriteFile(name, data, 0o644)
}
