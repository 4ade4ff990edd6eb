package core

import (
	"math"
	"testing"
	"testing/quick"

	"mobic/internal/radio"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRelativeMobilitySigns(t *testing.T) {
	tests := []struct {
		name           string
		prOld, prNew   float64
		wantSign       int
		wantMagnitudes float64
	}{
		{name: "moving apart is negative", prOld: 1e-9, prNew: 1e-10, wantSign: -1, wantMagnitudes: 10},
		{name: "closing in is positive", prOld: 1e-10, prNew: 1e-9, wantSign: 1, wantMagnitudes: 10},
		{name: "stationary is zero", prOld: 3e-9, prNew: 3e-9, wantSign: 0, wantMagnitudes: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := RelativeMobility(tt.prOld, tt.prNew)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tt.wantSign < 0 && got >= 0:
				t.Errorf("got %v, want negative", got)
			case tt.wantSign > 0 && got <= 0:
				t.Errorf("got %v, want positive", got)
			case tt.wantSign == 0 && got != 0:
				t.Errorf("got %v, want 0", got)
			}
			if !almostEqual(math.Abs(got), tt.wantMagnitudes, 1e-9) {
				t.Errorf("|Mrel| = %v, want %v", math.Abs(got), tt.wantMagnitudes)
			}
		})
	}
}

func TestRelativeMobilityRejectsBadPowers(t *testing.T) {
	bad := []float64{0, -1e-9, math.NaN(), math.Inf(1)}
	for _, b := range bad {
		if _, err := RelativeMobility(b, 1e-9); err == nil {
			t.Errorf("old=%v should error", b)
		}
		if _, err := RelativeMobility(1e-9, b); err == nil {
			t.Errorf("new=%v should error", b)
		}
	}
}

// Antisymmetry: Mrel(a->b) = -Mrel(b->a).
func TestRelativeMobilityAntisymmetryProperty(t *testing.T) {
	anti := func(aSeed, bSeed uint32) bool {
		a := 1e-12 * (1 + float64(aSeed))
		b := 1e-12 * (1 + float64(bSeed))
		ab, err1 := RelativeMobility(a, b)
		ba, err2 := RelativeMobility(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(ab, -ba, 1e-9)
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Error(err)
	}
}

// Under the two-ray model beyond crossover, Mrel for a node moving from d1 to
// d2 is 40*log10(d1/d2) — the distance law the paper's metric rides on.
func TestRelativeMobilityDistanceCoupling(t *testing.T) {
	m := radio.NewTwoRayGround()
	const pt = radio.DefaultTxPower
	d1, d2 := 120.0, 180.0
	rel, err := RelativeMobility(m.RxPower(pt, d1), m.RxPower(pt, d2))
	if err != nil {
		t.Fatal(err)
	}
	want := 40 * math.Log10(d1/d2)
	if !almostEqual(rel, want, 1e-9) {
		t.Errorf("Mrel = %v, want %v", rel, want)
	}
	if rel >= 0 {
		t.Error("moving from 120 m to 180 m away must give negative Mrel")
	}
}

func TestAggregateLocalMobility(t *testing.T) {
	if got := AggregateLocalMobility(nil); got != 0 {
		t.Errorf("empty aggregate = %v, want 0 (paper init)", got)
	}
	got := AggregateLocalMobility([]float64{3, -4})
	if !almostEqual(got, (9.0+16.0)/2, 1e-12) {
		t.Errorf("aggregate = %v, want 12.5", got)
	}
}

func TestTrackerNeedsTwoSamples(t *testing.T) {
	tr := NewTracker()
	if err := tr.Observe(1, 0, 1e-9); err != nil {
		t.Fatal(err)
	}
	if tr.NeighborCount() != 1 {
		t.Errorf("NeighborCount = %d, want 1", tr.NeighborCount())
	}
	if got := len(tr.Pairwise(nil)); got != 0 {
		t.Errorf("%d eligible neighbors, want 0 after one sample", got)
	}
	if got := tr.Aggregate(); got != 0 {
		t.Errorf("Aggregate with no eligible neighbors = %v, want 0", got)
	}
	if err := tr.Observe(1, 2, 2e-9); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Pairwise(nil)); got != 1 {
		t.Errorf("%d eligible neighbors, want 1", got)
	}
	want, err := RelativeMobility(1e-9, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Aggregate(); !almostEqual(got, want*want, 1e-9) {
		t.Errorf("Aggregate = %v, want %v", got, want*want)
	}
}

func TestTrackerRejectsBadPower(t *testing.T) {
	tr := NewTracker()
	if err := tr.Observe(1, 0, 0); err == nil {
		t.Error("zero power should error")
	}
	if err := tr.Observe(1, 0, math.NaN()); err == nil {
		t.Error("NaN power should error")
	}
	if tr.NeighborCount() != 0 {
		t.Error("rejected observation should not create a neighbor")
	}
}

func TestTrackerMultipleNeighbors(t *testing.T) {
	tr := NewTracker()
	// Neighbor 1: power doubles (+3.01 dB). Neighbor 2: halves (-3.01 dB).
	// Neighbor 3: only one sample (excluded).
	mustObserve(t, tr, 1, 0, 1e-9)
	mustObserve(t, tr, 1, 2, 2e-9)
	mustObserve(t, tr, 2, 0, 4e-9)
	mustObserve(t, tr, 2, 2, 2e-9)
	mustObserve(t, tr, 3, 2, 5e-9)

	pw := tr.Pairwise(nil)
	if len(pw) != 2 {
		t.Fatalf("Pairwise len = %d, want 2", len(pw))
	}
	db := 10 * math.Log10(2)
	if got := tr.Aggregate(); !almostEqual(got, db*db, 1e-9) {
		t.Errorf("Aggregate = %v, want %v (symmetric +-3dB)", got, db*db)
	}
}

func TestTrackerSlidingWindow(t *testing.T) {
	tr := NewTracker()
	mustObserve(t, tr, 1, 0, 1e-9)
	mustObserve(t, tr, 1, 2, 2e-9)
	mustObserve(t, tr, 1, 4, 8e-9) // new pair is (2e-9 -> 8e-9): +6.02 dB
	want, err := RelativeMobility(2e-9, 8e-9)
	if err != nil {
		t.Fatal(err)
	}
	pw := tr.Pairwise(nil)
	if len(pw) != 1 || !almostEqual(pw[0], want, 1e-9) {
		t.Errorf("Pairwise = %v, want [%v]", pw, want)
	}
}

func TestTrackerExpire(t *testing.T) {
	tr := NewTracker()
	mustObserve(t, tr, 1, 0, 1e-9)
	mustObserve(t, tr, 1, 2, 1e-9)
	mustObserve(t, tr, 2, 4, 1e-9)
	mustObserve(t, tr, 2, 6, 1e-9)
	// At t=7 with TP=3: neighbor 1 (last heard t=2) expires, 2 stays.
	if dropped := tr.Expire(7, 3); dropped != 1 {
		t.Errorf("Expire dropped %d, want 1", dropped)
	}
	if tr.NeighborCount() != 1 {
		t.Errorf("NeighborCount = %d, want 1", tr.NeighborCount())
	}
	pw := tr.Pairwise(nil)
	if len(pw) != 1 {
		t.Errorf("Pairwise after expire = %v", pw)
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker()
	mustObserve(t, tr, 2, 0, 1e-9)
	tr.Reset()
	if tr.NeighborCount() != 0 {
		t.Error("Reset should clear neighbors")
	}
}

func TestTrackerStationaryNodeHasZeroM(t *testing.T) {
	// A node whose neighbors' powers never change is perfectly non-mobile.
	tr := NewTracker()
	for i := int32(1); i <= 5; i++ {
		mustObserve(t, tr, i, 0, 1e-9)
		mustObserve(t, tr, i, 2, 1e-9)
	}
	if got := tr.Aggregate(); got != 0 {
		t.Errorf("stationary aggregate = %v, want 0", got)
	}
}

// The more mobile the neighborhood, the larger M: moving neighbors at
// various rates must order aggregates correctly.
func TestTrackerOrdersMobility(t *testing.T) {
	model := radio.NewTwoRayGround()
	const pt = radio.DefaultTxPower
	agg := func(d0, d1 float64) float64 {
		tr := NewTracker()
		mustObserve(t, tr, 1, 0, model.RxPower(pt, d0))
		mustObserve(t, tr, 1, 2, model.RxPower(pt, d1))
		return tr.Aggregate()
	}
	slow := agg(100, 105)  // 2.5 m/s drift
	fast := agg(100, 140)  // 20 m/s drift
	still := agg(100, 100) // no drift
	if !(still < slow && slow < fast) {
		t.Errorf("ordering violated: still=%v slow=%v fast=%v", still, slow, fast)
	}
}

func TestTrackerEWMA(t *testing.T) {
	tr := NewTracker(WithEWMA(0.5))
	// First aggregate: one neighbor at +
	mustObserve(t, tr, 1, 0, 1e-9)
	mustObserve(t, tr, 1, 2, 2e-9)
	db := 10 * math.Log10(2)
	first := tr.Aggregate()
	if !almostEqual(first, db*db, 1e-9) {
		t.Fatalf("first smoothed aggregate = %v, want %v", first, db*db)
	}
	// Neighborhood goes quiet: raw M drops to 0, smoothed decays halfway.
	mustObserve(t, tr, 1, 4, 2e-9)
	second := tr.Aggregate()
	if !almostEqual(second, first/2, 1e-9) {
		t.Errorf("smoothed aggregate = %v, want %v", second, first/2)
	}
}

func TestTrackerPairwiseEWMA(t *testing.T) {
	tr := NewTracker(WithPairwiseEWMA(0.5))
	// Neighbor 1: first pair gives +3.01 dB; the smoothed value primes
	// to exactly that.
	mustObserve(t, tr, 1, 0, 1e-9)
	mustObserve(t, tr, 1, 2, 2e-9)
	db := 10 * math.Log10(2)
	pw := tr.Pairwise(nil)
	if len(pw) != 1 || !almostEqual(pw[0], db, 1e-9) {
		t.Fatalf("primed pairwise = %v, want [%v]", pw, db)
	}
	// Next pair is flat (0 dB); smoothed halves.
	mustObserve(t, tr, 1, 4, 2e-9)
	pw = tr.Pairwise(nil)
	if len(pw) != 1 || !almostEqual(pw[0], db/2, 1e-9) {
		t.Errorf("smoothed pairwise = %v, want [%v]", pw, db/2)
	}
	// Aggregate uses the smoothed value.
	if got := tr.Aggregate(); !almostEqual(got, (db/2)*(db/2), 1e-9) {
		t.Errorf("Aggregate = %v, want %v", got, (db/2)*(db/2))
	}
}

func TestPairwiseEWMAInvalidAlphaDisables(t *testing.T) {
	tr := NewTracker(WithPairwiseEWMA(1.5)) // clamped to 1 = memoryless
	mustObserve(t, tr, 1, 0, 1e-9)
	mustObserve(t, tr, 1, 2, 2e-9)
	mustObserve(t, tr, 1, 4, 2e-9)
	pw := tr.Pairwise(nil)
	if len(pw) != 1 || pw[0] != 0 {
		t.Errorf("memoryless pairwise = %v, want [0]", pw)
	}
}

func TestTrackerEWMAResetClearsSmoother(t *testing.T) {
	tr := NewTracker(WithEWMA(0.5))
	mustObserve(t, tr, 1, 0, 1e-9)
	mustObserve(t, tr, 1, 2, 4e-9)
	if tr.Aggregate() == 0 {
		t.Fatal("aggregate should be nonzero before reset")
	}
	tr.Reset()
	if got := tr.Aggregate(); got != 0 {
		t.Errorf("post-reset aggregate = %v, want 0", got)
	}
}

// Property: Aggregate is always non-negative regardless of power sequences.
func TestAggregateNonNegativeProperty(t *testing.T) {
	nonNeg := func(powers []uint32) bool {
		tr := NewTracker()
		for i, p := range powers {
			pw := 1e-12 * (1 + float64(p%1000000))
			if err := tr.Observe(int32(i%7), float64(i), pw); err != nil {
				return false
			}
		}
		return tr.Aggregate() >= 0
	}
	if err := quick.Check(nonNeg, nil); err != nil {
		t.Error(err)
	}
}

func mustObserve(t *testing.T, tr *Tracker, id int32, tm, pr float64) {
	t.Helper()
	if err := tr.Observe(id, tm, pr); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrackerObserveAggregate(b *testing.B) {
	tr := NewTracker()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		id := int32(i % 20)
		if err := tr.Observe(id, float64(i), 1e-9*(1+float64(i%13))); err != nil {
			b.Fatal(err)
		}
		if i%20 == 19 {
			sink = tr.Aggregate()
		}
	}
	_ = sink
}
