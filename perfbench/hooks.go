package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"mobic/internal/cluster"
	"mobic/internal/geom"
	"mobic/internal/mobility"
	"mobic/internal/obs"
	"mobic/internal/radio"
	"mobic/internal/sim"
	"mobic/internal/simnet"
	"mobic/internal/trace"
)

// runProbe is the hook set of one simulation, installed into its
// simnet.Config before simnet.New. Untraced, it only times the run: the
// mobility wrapper marks when simnet.New starts generating trajectories and
// the recorder catches Network.Run's scheduler-chunk spans. Traced, it also
// counts the engine's telemetry, the trace events and every RxPower call,
// hashes the event stream, and, for sampled runs, records broadcasts and
// deliveries for the core and spatial replays.
//
// A probe is used by exactly one simulation goroutine while the run lasts;
// it is read only after the run has finished.
type runProbe struct {
	traced bool
	key    string // identity of (scenario, algorithm, seed)
	seed   uint64
	n      int
	dur    float64
	area   geom.Rect
	tx     float64
	bi, tp float64
	alg    cluster.Algorithm

	genStart, genEnd  int64 // trajectory generation, unix ns
	runStart, runEnd  int64 // first and last scheduler chunk, unix ns
	waypoints         int64
	counts            [obs.NumMetrics]int64
	contentions       int64
	rxCalls           int64
	hash              uint64
	trajs             []*mobility.Trajectory // kept for sampled runs
	events            []replayEvent          // recorded for sampled runs
	sampled           bool
	rxStride          int32 // record deliveries only to receivers with id%rxStride == 0
	distanceSample    []float64
	distanceSampleCap int
}

// replayEvent is one recorded broadcast (rx < 0) or delivery.
type replayEvent struct {
	t, v   float64 // time; advertised weight or received power
	tx, rx int32
}

func (p *runProbe) newDur() time.Duration { return time.Duration(p.runStart - p.genStart) }
func (p *runProbe) runDur() time.Duration { return time.Duration(p.runEnd - p.runStart) }
func (p *runProbe) wallDur() time.Duration {
	return time.Duration(p.runEnd - p.genStart)
}
func (p *runProbe) nodeSeconds() float64 { return float64(p.n) * p.dur }

// Enabled reports true so the engine times its scheduler chunks.
func (p *runProbe) Enabled() bool { return true }

// Add counts engine telemetry (traced runs only).
func (p *runProbe) Add(m obs.Metric, delta int64) {
	if p.traced {
		p.counts[m] += delta
	}
}

// Set ignores gauges.
func (p *runProbe) Set(obs.Metric, float64) {}

// Observe ignores histograms: the runner reports cell times to its own
// recorder.
func (p *runProbe) Observe(obs.Metric, float64) {}

// Span keeps the first and last scheduler chunk of Network.Run.
func (p *runProbe) Span(k obs.SpanKind, start, end int64) {
	if k != obs.SpanSimChunk {
		return
	}
	if p.runStart == 0 {
		p.runStart = start
	}
	p.runEnd = end
}

// observe is the run's simnet.Config.Observer (traced runs only).
func (p *runProbe) observe(ev trace.Event) {
	var buf [8 * 4]byte
	putU64(buf[0:], math.Float64bits(ev.T))
	putU64(buf[8:], uint64(ev.Kind)<<32|uint64(uint32(ev.Node)))
	putU64(buf[16:], uint64(uint32(ev.Other)))
	putU64(buf[24:], math.Float64bits(ev.Value))
	p.hash = fnvMix(p.hash, buf[:])
	switch ev.Kind {
	case trace.KindContention:
		p.contentions++
	case trace.KindBroadcast:
		if p.sampled {
			p.events = append(p.events, replayEvent{t: ev.T, v: ev.Value, tx: ev.Node, rx: -1})
		}
	case trace.KindDeliver:
		if p.sampled && ev.Other%p.rxStride == 0 {
			p.events = append(p.events, replayEvent{t: ev.T, v: ev.Value, tx: ev.Node, rx: ev.Other})
		}
	}
}

func putU64(b []byte, v uint64) {
	for i := range 8 {
		b[i] = byte(v >> (8 * i))
	}
}

// fnvMix folds b into an FNV-1a 64 state (0 starts a fresh hash).
func fnvMix(h uint64, b []byte) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// timedMobility wraps the run's mobility model to time trajectory
// generation, the first step of simnet.New.
type timedMobility struct {
	mobility.Model
	p *runProbe
}

// Generate times the wrapped model's Generate and counts waypoints.
func (m timedMobility) Generate(n int, duration float64, streams *sim.Streams) ([]*mobility.Trajectory, error) {
	m.p.genStart = time.Now().UnixNano()
	trs, err := m.Model.Generate(n, duration, streams)
	m.p.genEnd = time.Now().UnixNano()
	if m.p.traced {
		for _, tr := range trs {
			m.p.waypoints += int64(tr.Waypoints())
		}
		if m.p.sampled {
			m.p.trajs = trs
		}
	}
	return trs, err
}

// countingRadio wraps the run's propagation model to count RxPower calls
// and keep a sample of the distances asked for.
type countingRadio struct {
	radio.Model
	p *runProbe
}

// RxPower counts the call and delegates.
func (r countingRadio) RxPower(txPower, d float64) float64 {
	r.p.rxCalls++
	if len(r.p.distanceSample) < r.p.distanceSampleCap && r.p.rxCalls%61 == 0 {
		r.p.distanceSample = append(r.p.distanceSample, d)
	}
	return r.Model.RxPower(txPower, d)
}

// probeSet installs a runProbe into every simulation it sees (through
// experiment.Runner.Mutate or directly) and keeps them for the report.
type probeSet struct {
	traced      bool
	sampleEvery int   // record every k-th run for the replays (0 = none)
	sampleMax   int   // at most this many recorded runs
	rxStride    int32 // recorded runs keep deliveries to every rxStride-th node

	mu      sync.Mutex
	probes  []*runProbe
	seen    map[string]int // config key -> first probe index
	dups    int
	sampled int
}

func newProbeSet(traced bool, sampleEvery, sampleMax int, rxStride int32) *probeSet {
	return &probeSet{
		traced: traced, sampleEvery: sampleEvery, sampleMax: sampleMax, rxStride: rxStride,
		seen: map[string]int{},
	}
}

// configKey identifies a simulation by everything that determines its
// output in the workloads here: scenario, algorithm and seed.
func configKey(cfg *simnet.Config) string {
	return fmt.Sprintf("%d|%v|%g|%d|%s|%g|%g|%g|%s:%+v",
		cfg.N, cfg.Area, cfg.Duration, cfg.Seed, cfg.Algorithm.Name, cfg.TxRange,
		cfg.BroadcastInterval, cfg.TimeoutPeriod, cfg.Mobility.Name(), cfg.Mobility)
}

// mutate installs a fresh probe into cfg. It is safe for concurrent use.
func (s *probeSet) mutate(cfg *simnet.Config) {
	p := &runProbe{
		traced: s.traced,
		key:    configKey(cfg),
		seed:   cfg.Seed,
		n:      cfg.N,
		dur:    cfg.Duration,
		area:   cfg.Area,
		tx:     cfg.TxRange,
		bi:     cfg.BroadcastInterval,
		tp:     cfg.TimeoutPeriod,
		alg:    cfg.Algorithm,

		rxStride: s.rxStride,
	}
	if p.bi == 0 {
		p.bi = simnet.DefaultBroadcastInterval
	}
	if p.tp == 0 {
		p.tp = simnet.DefaultTimeoutPeriod
	}
	s.mu.Lock()
	idx := len(s.probes)
	if _, ok := s.seen[p.key]; ok {
		s.dups++
	} else {
		s.seen[p.key] = idx
	}
	if s.traced && s.sampleEvery > 0 && idx%s.sampleEvery == 0 && s.sampled < s.sampleMax {
		p.sampled = true
		s.sampled++
	}
	if p.sampled {
		p.distanceSampleCap = 1024
	}
	s.probes = append(s.probes, p)
	s.mu.Unlock()

	cfg.Obs = p
	cfg.Mobility = timedMobility{Model: cfg.Mobility, p: p}
	if s.traced {
		if cfg.Propagation == nil {
			cfg.Propagation = radio.NewTwoRayGround() // simnet's default
		}
		cfg.Propagation = countingRadio{Model: cfg.Propagation, p: p}
		cfg.Observer = p.observe
	}
}

// isDuplicate reports whether probe i repeats an earlier probe's config.
func (s *probeSet) isDuplicate(i int) bool {
	return s.seen[s.probes[i].key] != i
}

// total sums one engine counter over every run.
func (s *probeSet) total(m obs.Metric) int64 {
	var t int64
	for _, p := range s.probes {
		t += p.counts[m]
	}
	return t
}

// layerRecorder is the obs.Recorder handed to experiment.Runner and the
// services in traced runs: it keeps the runner's per-replication wall
// times and spans. The engine's counters go to each run's own runProbe.
type layerRecorder struct {
	mu        sync.Mutex
	cellSecs  []float64
	cellSpans [][2]int64
}

func (r *layerRecorder) Enabled() bool           { return true }
func (r *layerRecorder) Add(obs.Metric, int64)   {}
func (r *layerRecorder) Set(obs.Metric, float64) {}

func (r *layerRecorder) Observe(m obs.Metric, v float64) {
	if m != obs.ExpCellSeconds {
		return
	}
	r.mu.Lock()
	r.cellSecs = append(r.cellSecs, v)
	r.mu.Unlock()
}

func (r *layerRecorder) Span(k obs.SpanKind, start, end int64) {
	if k != obs.SpanCell {
		return
	}
	r.mu.Lock()
	r.cellSpans = append(r.cellSpans, [2]int64{start, end})
	r.mu.Unlock()
}
