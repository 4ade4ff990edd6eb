package harness

import (
	"testing"

	"mobic/internal/cluster"
	"mobic/internal/geom"
	"mobic/internal/mobility"
	"mobic/internal/simnet"
)

// orderSensitiveConfig is a short dense scenario tuned to expose iteration-
// order bugs: 20 nodes packed inside one transmission range, so every
// neighbor table holds many entries and every weight computation folds many
// floating-point terms. If any fold still ran in Go's randomized map order,
// the low bits of the weights — and with them election outcomes and the
// digest — would differ between repetitions.
func orderSensitiveConfig(t *testing.T, alg cluster.Algorithm) simnet.Config {
	t.Helper()
	area := geom.Square(400)
	return simnet.Config{
		N:         20,
		Area:      area,
		Duration:  60,
		Seed:      7,
		Algorithm: alg,
		Mobility:  &mobility.RandomWaypoint{Area: area, MaxSpeed: 20},
		TxRange:   250,
	}
}

// runRepeatedDigests runs the same config `runs` times and fails on the
// first digest that differs from the first run's.
func runRepeatedDigests(t *testing.T, cfg simnet.Config, runs int) {
	t.Helper()
	first, _, err := DigestRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Events == 0 {
		t.Fatal("digest saw no events; scenario too small to prove anything")
	}
	for i := 1; i < runs; i++ {
		d, _, err := DigestRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d != first {
			t.Fatalf("run %d diverged from run 0:\n  first: %+v\n  later: %+v", i, first, d)
		}
	}
}

// TestOracleMobilityDigestOrderIndependent is the regression test for the
// oracleMobility map-order bug: the GPS-oracle weight sums squared range
// rates over the neighbor table, and summing in map order made repeated runs
// of the same seed differ in the last float bits — enough to flip elections.
// 200 repetitions give randomized map iteration ample room to misbehave.
func TestOracleMobilityDigestOrderIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("200 repeated runs is long-mode work")
	}
	alg, err := cluster.ByName("mobic-oracle")
	if err != nil {
		t.Fatal(err)
	}
	runRepeatedDigests(t, orderSensitiveConfig(t, alg), 200)
}

// TestDegreeDigestOrderIndependent covers the KindDegree weight the same
// way: its value is an integer neighbor count, but the views handed to the
// clustering step used to be built in map order, so tie-breaks and timeout
// emission were still order-exposed.
func TestDegreeDigestOrderIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated runs are long-mode work")
	}
	runRepeatedDigests(t, orderSensitiveConfig(t, cluster.MaxConnectivity), 200)
}

// TestMobicDigestOrderIndependentWithCollisions exercises the measured
// (RxPr-ratio) metric with the MAC collision model on, covering the
// core.Tracker pairwise fold and the timeout purge ordering together. Two
// more tick-path shapes ride along: node churn (crashes, a recovery inside
// one beacon interval, rescheduled beacon chains) and a static LCC network,
// whose ties and neighbor tables never change once formed.
func TestMobicDigestOrderIndependentWithCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated runs are long-mode work")
	}
	collisions := orderSensitiveConfig(t, cluster.MOBIC)
	collisions.HelloCollisions = true

	churn := orderSensitiveConfig(t, cluster.MOBIC)
	churn.Failures = []simnet.NodeFailure{
		{Node: 3, At: 20},
		{Node: 11, At: 25, RecoverAt: 40},
		{Node: 15, At: 30.5, RecoverAt: 31},
		{Node: 7, At: 45, RecoverAt: 55},
	}

	static := orderSensitiveConfig(t, cluster.LCC)
	static.Mobility = &mobility.Static{Area: static.Area}

	for name, cfg := range map[string]simnet.Config{
		"collisions": collisions,
		"churn":      churn,
		"static-lcc": static,
	} {
		t.Run(name, func(t *testing.T) { runRepeatedDigests(t, cfg, 50) })
	}
}
