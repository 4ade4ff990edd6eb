package simnet

import (
	"testing"

	"mobic/internal/cluster"
	"mobic/internal/energy"
	"mobic/internal/geom"
	"mobic/internal/mobility"
	"mobic/internal/obs"
)

// benchDuration bounds how much simulated time one benchmark network can
// serve; trajectories are generated eagerly, so this cannot be "infinite".
// Long -benchtime runs rebuild the network (off the timer) when it runs out.
const benchDuration = 3600.0

// benchNetwork builds the broadcast-delivery benchmark scenario: the paper's
// Table 1 density with the MAC collision model on, so every beacon walks the
// full hot path (grid query, threshold test, airtime deferral, neighbor-table
// update) and warms it past the listen-only first round.
func benchNetwork(b *testing.B, collisions bool) *Network {
	return benchNetworkObs(b, collisions, nil)
}

// benchNetworkObs is benchNetwork with a recorder installed.
func benchNetworkObs(b *testing.B, collisions bool, rec obs.Recorder) *Network {
	return benchNetworkMut(b, collisions, rec, nil)
}

// benchNetworkMut is benchNetworkObs with a config mutator applied before the
// network is built, so policy variants measure the same scenario.
func benchNetworkMut(b *testing.B, collisions bool, rec obs.Recorder, mutate func(*Config)) *Network {
	b.Helper()
	area := geom.Square(670)
	cfg := Config{
		N:               50,
		Area:            area,
		Duration:        benchDuration, // the benchmark advances the clock itself
		Seed:            1,
		Algorithm:       cluster.MOBIC,
		Mobility:        &mobility.RandomWaypoint{Area: area, MaxSpeed: 20},
		TxRange:         250,
		SampleInterval:  5,
		HelloCollisions: collisions,
		Obs:             rec,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	net, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up: let tables, pools and scratch buffers reach steady state.
	net.sched.RunUntil(30)
	return net
}

// BenchmarkBroadcastDelivery measures one steady-state beacon interval of the
// full 50-node network — every node ticks, broadcasts, and delivers through
// the collision-model airtime path. This is the per-beacon hot loop every
// experiment and every mobicd job spends its cycles in; allocs/op is the
// gated number (see BENCH_engine.json).
func BenchmarkBroadcastDelivery(b *testing.B) {
	runBeaconIntervals(b, true)
}

// BenchmarkBroadcastDeliveryNoMAC is the same loop with the collision model
// off: deliveries apply synchronously, isolating the grid-query plus
// applyHello path from the airtime deferral machinery.
func BenchmarkBroadcastDeliveryNoMAC(b *testing.B) {
	runBeaconIntervals(b, false)
}

// BenchmarkAdaptiveBI is BenchmarkBroadcastDelivery with the clustering
// policies enabled: every node floats its own hello interval (adaptive BI)
// and carries a battery whose drain accounting and election penalty ride the
// same hot loop. The budget is far above the horizon's drain, so the number
// measures the policies' steady-state bookkeeping — and allocs/op is gated at
// 0 alongside the baseline, pinning that enabling the policies does not cost
// the zero-alloc tick.
func BenchmarkAdaptiveBI(b *testing.B) {
	runBeaconIntervalsMut(b, true, nil, func(cfg *Config) {
		cfg.Adaptive = &AdaptiveBI{Min: 0.5, Max: 4, MRef: 4, Hysteresis: 0.25}
		ec := energy.Default()
		ec.InitialJ = 1e6
		cfg.Energy = &ec
	})
}

// BenchmarkInstrumentedBroadcastDelivery is BenchmarkBroadcastDelivery with
// a live obs.Registry installed, measuring the full cost of enabled
// telemetry on the hot loop. Its ns/op and allocs/op are gated against the
// uninstrumented baseline in BENCH_engine.json: the delta is the true price
// of observability, and allocs/op must stay 0.
func BenchmarkInstrumentedBroadcastDelivery(b *testing.B) {
	runBeaconIntervalsObs(b, true, obs.NewRegistry())
}

// megaDuration bounds the 10k-node benchmark network's trajectories: long
// enough for many measured intervals, short enough that the off-timer
// trajectory generation stays cheap.
const megaDuration = 240.0

// megaNetwork builds the 10k-node mega-scenario: the paper's Table 1 node
// density (50 nodes per 670 m square) scaled 200x, so per-node degree — and
// therefore per-beacon work — matches the pinned workloads while total work
// is 200x one. SampleInterval is stretched so the O(N^2) connectivity sampler
// stays out of the measured beacon intervals.
func megaNetwork(b *testing.B) *Network {
	b.Helper()
	area := geom.Square(9475) // 670 * sqrt(200)
	cfg := Config{
		N:              10000,
		Area:           area,
		Duration:       megaDuration,
		Seed:           1,
		Algorithm:      cluster.MOBIC,
		Mobility:       &mobility.RandomWaypoint{Area: area, MaxSpeed: 20},
		TxRange:        250,
		SampleInterval: 60,
	}
	net, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	net.sched.RunUntil(6) // warm up past the listen-only first round
	return net
}

// BenchmarkMegaScenario measures one steady-state beacon interval of the
// 10k-node preset, pinned in BENCH_engine.json. The sub-benchmark keeps its
// "sequential" name so the baseline key stays stable.
func BenchmarkMegaScenario(b *testing.B) {
	b.Run("sequential", runMegaIntervals)
}

// runMegaIntervals advances the mega network one beacon interval per op,
// rebuilding (off-timer) when the bounded trajectories run out.
func runMegaIntervals(b *testing.B) {
	net := megaNetwork(b)
	interval := net.cfg.BroadcastInterval
	var fired uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net.sched.Now()+interval > megaDuration-1 {
			b.StopTimer()
			fired += net.sched.Fired()
			net = megaNetwork(b)
			b.StartTimer()
		}
		net.sched.RunUntil(net.sched.Now() + interval)
	}
	b.StopTimer()
	if fired+net.sched.Fired() == 0 {
		b.Fatal("no events fired")
	}
}

// runBeaconIntervals advances the network one beacon interval per benchmark
// op, rebuilding (off-timer) when the bounded trajectories run out.
func runBeaconIntervals(b *testing.B, collisions bool) {
	runBeaconIntervalsObs(b, collisions, nil)
}

// runBeaconIntervalsObs is runBeaconIntervals with a recorder installed.
func runBeaconIntervalsObs(b *testing.B, collisions bool, rec obs.Recorder) {
	runBeaconIntervalsMut(b, collisions, rec, nil)
}

// runBeaconIntervalsMut is runBeaconIntervalsObs with a config mutator, so
// policy-enabled variants advance the same amount of simulated time per op.
func runBeaconIntervalsMut(b *testing.B, collisions bool, rec obs.Recorder, mutate func(*Config)) {
	b.Helper()
	net := benchNetworkMut(b, collisions, rec, mutate)
	interval := net.cfg.BroadcastInterval
	var fired uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net.sched.Now()+interval > benchDuration-1 {
			b.StopTimer()
			fired += net.sched.Fired()
			net = benchNetworkMut(b, collisions, rec, mutate)
			b.StartTimer()
		}
		net.sched.RunUntil(net.sched.Now() + interval)
	}
	b.StopTimer()
	if fired+net.sched.Fired() == 0 {
		b.Fatal("no events fired")
	}
}
