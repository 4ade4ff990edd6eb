package sim

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		tm := tm
		if _, err := s.At(tm, func(now float64) { fired = append(fired, now) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	if !sort.Float64sAreSorted(fired) {
		t.Errorf("events fired out of order: %v", fired)
	}
	if len(fired) != 5 {
		t.Errorf("fired %d events, want 5", len(fired))
	}
}

func TestSchedulerTieBreakIsFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.At(7, func(float64) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

func TestSchedulerRejectsPastEvents(t *testing.T) {
	s := NewScheduler()
	if _, err := s.At(10, func(float64) {}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10)
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want 10", s.Now())
	}
	if _, err := s.At(5, func(float64) {}); err == nil {
		t.Error("scheduling in the past should error")
	}
	if _, err := s.At(math.NaN(), func(float64) {}); err == nil {
		t.Error("scheduling at NaN should error")
	}
	// Scheduling at exactly now is allowed.
	if _, err := s.At(10, func(float64) {}); err != nil {
		t.Errorf("scheduling at now should be allowed: %v", err)
	}
}

func TestAfter(t *testing.T) {
	s := NewScheduler()
	var at float64 = -1
	if _, err := s.After(2.5, func(now float64) { at = now }); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if at != 2.5 {
		t.Errorf("After fired at %v, want 2.5", at)
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	ev, err := s.At(1, func(float64) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(ev)
	s.Drain()
	if fired {
		t.Error("canceled event fired")
	}
	if !ev.Canceled() {
		t.Error("event should report canceled")
	}
	// Double-cancel is a no-op.
	s.Cancel(ev)
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		if _, err := s.At(tm, func(now float64) { fired = append(fired, now) }); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Errorf("fired %d events by horizon 3, want 3 (inclusive)", len(fired))
	}
	if s.Now() != 3 {
		t.Errorf("clock = %v, want 3", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 5 {
		t.Errorf("fired %d total, want 5", len(fired))
	}
	if s.Now() != 10 {
		t.Errorf("clock should advance to horizon even past last event, got %v", s.Now())
	}
}

func TestRunUntilSkipsCanceledHead(t *testing.T) {
	s := NewScheduler()
	ev, err := s.At(1, func(float64) { t.Error("canceled head fired") })
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	if _, err := s.At(2, func(float64) { fired = true }); err != nil {
		t.Fatal(err)
	}
	s.Cancel(ev)
	s.RunUntil(5)
	if !fired {
		t.Error("live event after canceled head did not fire")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func(now float64)
	tick = func(now float64) {
		count++
		if count < 5 {
			if _, err := s.After(1, tick); err != nil {
				t.Errorf("reschedule failed: %v", err)
			}
		}
	}
	if _, err := s.At(0, tick); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(100)
	if count != 5 {
		t.Errorf("self-rescheduling chain fired %d times, want 5", count)
	}
	if s.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", s.Fired())
	}
}

func TestPending(t *testing.T) {
	s := NewScheduler()
	if s.Pending() != 0 {
		t.Error("fresh scheduler should have no pending events")
	}
	if _, err := s.At(1, func(float64) {}); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
}

// Property: random scheduling orders always fire sorted by time.
func TestSchedulerOrderProperty(t *testing.T) {
	ordered := func(times []uint16) bool {
		s := NewScheduler()
		var fired []float64
		for _, raw := range times {
			tm := float64(raw) / 10
			if _, err := s.At(tm, func(now float64) { fired = append(fired, now) }); err != nil {
				return false
			}
		}
		s.Drain()
		return sort.Float64sAreSorted(fired) && len(fired) == len(times)
	}
	if err := quick.Check(ordered, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamsDeterminism(t *testing.T) {
	a := NewStreams(42).Named("jitter")
	b := NewStreams(42).Named("jitter")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed+name should give identical sequences")
		}
	}
}

func TestStreamsIndependence(t *testing.T) {
	s := NewStreams(42)
	a, b := s.Named("jitter"), s.Named("loss")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different names look correlated: %d/100 equal draws", same)
	}
}

func TestStreamsSeedSensitivity(t *testing.T) {
	a := NewStreams(1).Named("x")
	b := NewStreams(2).Named("x")
	if a.Float64() == b.Float64() && a.Float64() == b.Float64() {
		t.Error("different seeds should diverge")
	}
	if NewStreams(7).Seed() != 7 {
		t.Error("Seed accessor mismatch")
	}
}

func TestNamedIndexedDistinctPerIndex(t *testing.T) {
	s := NewStreams(42)
	seen := make(map[float64]bool)
	for i := 0; i < 50; i++ {
		v := s.NamedIndexed("mobility", i).Float64()
		if seen[v] {
			t.Fatalf("index %d produced duplicate first draw", i)
		}
		seen[v] = true
	}
}

func TestNamedIndexedReproducible(t *testing.T) {
	draw := func(seed uint64, i int) float64 {
		return NewStreams(seed).NamedIndexed("m", i).Float64()
	}
	if draw(9, 3) != draw(9, 3) {
		t.Error("NamedIndexed not reproducible")
	}
}

var sinkFloat float64

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.After(rng.Float64(), func(now float64) { sinkFloat = now }); err != nil {
			b.Fatal(err)
		}
		if i%4 == 3 {
			s.Step()
		}
	}
	s.Drain()
}
