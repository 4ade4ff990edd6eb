// Command perfbench is the repository's benchmark. It drives the simulator
// and the serving stack only through their public constructors and
// functions, checks every output it gets back, and prints one JSON result
// line:
//
//	perfbench --workload paper-figs|city-scale|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics with no per-event hooks
// installed. With --trace 1 it runs the workload once untraced and once
// with counting, timing and recording hooks on every layer, and reports the
// per-layer metrics, the tracing overhead, and writes the recorded spans to
// .bench_build/trace/. BENCHMARK.json at the repository root describes
// every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose outputs are pinned in testdata/reference.json.
const defaultSeed = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what one workload run measured and checked.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	// notes are diagnostics printed to standard error only: sample counts,
	// load-shape counters and the failed fraction.
	notes map[string]float64
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]float64{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// check counts one attempted request and records it as failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// options are the command-line arguments every workload receives.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	record  bool
	workers int
}

var workloads = map[string]func(options) (*report, error){
	"paper-figs": runPaperFigs,
	"city-scale": runCityScale,
	"serve-mix":  runServeMix,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-figs, city-scale or serve-mix")
		seed    = flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from (> 0)")
		seconds = flag.Int("seconds", 20, "how long one run measures, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		record  = flag.Bool("record", false, "rewrite testdata/reference.json from this run (default seed only)")
	)
	flag.Parse()
	run, ok := workloads[*name]
	switch {
	case !ok:
		fatalf("unknown workload %q", *name)
	case *seed == 0:
		fatalf("--seed must be positive")
	case *seconds < 1:
		fatalf("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		fatalf("--trace must be 0 or 1")
	case *record && *seed != defaultSeed:
		fatalf("--record needs the default seed %d", defaultSeed)
	}
	opt := options{
		seed:    *seed,
		seconds: float64(*seconds),
		traced:  *trace == 1,
		record:  *record,
		workers: runtime.NumCPU(),
	}
	rep, err := run(opt)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	if rep.attempted == 0 {
		fatalf("%s: no request attempted", *name)
	}
	rep.notes["failed_frac"] = float64(rep.failed) / float64(rep.attempted)
	rep.notes["peak_rss_mb"] = peakRSSMB()
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	keys := make([]string, 0, len(rep.notes))
	for k := range rep.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%g", k, rep.notes[k])
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%d%s\n", *name, *seed, *trace, b.String())
	line, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[max(0, min(rank, len(s)-1))]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencyMetrics reports the fresh/hit latency percentiles and records the
// sample counts.
func (r *report) latencyMetrics(freshMS, hitMS []float64) {
	r.set("fresh_p50_ms", percentile(freshMS, 50), "ms")
	r.set("fresh_p90_ms", percentile(freshMS, 90), "ms")
	r.set("hit_p50_ms", percentile(hitMS, 50), "ms")
	r.set("hit_p90_ms", percentile(hitMS, 90), "ms")
	r.notes["fresh_samples"] = float64(len(freshMS))
	r.notes["hit_samples"] = float64(len(hitMS))
}
