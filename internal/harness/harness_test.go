package harness

import (
	"testing"

	"mobic/internal/simnet"
	"mobic/internal/trace"
)

// Two streams that present the same same-instant events in different orders
// must digest identically: within one scheduler instant, delivery order is
// an implementation detail (grid bucket order vs ID order).
func TestDigesterCanonicalizesSameTimestampOrder(t *testing.T) {
	evs := []trace.Event{
		{T: 1.5, Kind: trace.KindDeliver, Node: 3, Other: 7, Value: 1e-9},
		{T: 1.5, Kind: trace.KindDeliver, Node: 3, Other: 2, Value: 2e-9},
		{T: 1.5, Kind: trace.KindRoleChange, Node: 3, Other: -1, Value: 1},
		{T: 1.5, Kind: trace.KindDeliver, Node: 3, Other: 9, Value: 3e-9},
	}
	a := NewDigester()
	for _, ev := range evs {
		a.Observe(ev)
	}
	b := NewDigester()
	for i := len(evs) - 1; i >= 0; i-- {
		b.Observe(evs[i])
	}
	if a.Sum() != b.Sum() {
		t.Error("same-timestamp permutation changed the digest")
	}
	if a.Count() != b.Count() || a.Count() != 4 {
		t.Errorf("counts diverged: %d vs %d", a.Count(), b.Count())
	}
}

// Events at different timestamps are order-significant: swapping them is a
// genuine behavioural difference and must change the digest.
func TestDigesterDistinguishesCrossTimestampOrder(t *testing.T) {
	x := trace.Event{T: 1.0, Kind: trace.KindDeliver, Node: 1, Other: 2, Value: 1e-9}
	y := trace.Event{T: 2.0, Kind: trace.KindDeliver, Node: 1, Other: 2, Value: 1e-9}

	a := NewDigester()
	a.Observe(x)
	a.Observe(y)
	b := NewDigester()
	yx, xy := y, x
	yx.T, xy.T = 1.0, 2.0 // same timestamps, swapped payload order
	b.Observe(yx)
	b.Observe(xy)
	if a.Sum() != b.Sum() {
		// identical payloads at identical times — must still agree
		t.Error("digest depends on more than (time, payload)")
	}

	c := NewDigester()
	c.Observe(x)
	d := NewDigester()
	d.Observe(y)
	if c.Sum() == d.Sum() {
		t.Error("digest ignores event timestamps")
	}
}

// Bookkeeping-only kinds (broadcasts, drops, timeouts) must not perturb the
// digest: they are implied by deliveries and would couple the digest to the
// loss model's internals.
func TestDigesterIgnoresBookkeepingKinds(t *testing.T) {
	deliver := trace.Event{T: 1.0, Kind: trace.KindDeliver, Node: 1, Other: 2, Value: 1e-9}
	a := NewDigester()
	a.Observe(deliver)

	b := NewDigester()
	b.Observe(trace.Event{T: 0.5, Kind: trace.KindBroadcast, Node: 1, Other: -1})
	b.Observe(deliver)
	b.Observe(trace.Event{T: 1.0, Kind: trace.KindDrop, Node: 1, Other: 3})
	b.Observe(trace.Event{T: 2.0, Kind: trace.KindTimeout, Node: 2, Other: 1})

	if a.Sum() != b.Sum() {
		t.Error("bookkeeping events leaked into the digest")
	}
	if b.Count() != 1 {
		t.Errorf("count includes irrelevant events: %d", b.Count())
	}
}

// A changed delivery value (received power) is a behavioural change — the
// mobility metric is computed from exactly these values — so it must change
// the digest.
func TestDigesterSensitiveToValues(t *testing.T) {
	a := NewDigester()
	a.Observe(trace.Event{T: 1.0, Kind: trace.KindDeliver, Node: 1, Other: 2, Value: 1e-9})
	b := NewDigester()
	b.Observe(trace.Event{T: 1.0, Kind: trace.KindDeliver, Node: 1, Other: 2, Value: 2e-9})
	if a.Sum() == b.Sum() {
		t.Error("digest ignores delivery values")
	}
}

// Window checkpoints locate a divergence: two streams that differ only in
// one event at t=25 share the checkpoints of [0 s, 10 s) and [10 s, 20 s),
// differ from [20 s, 30 s) on, and the golden test's locator names that
// window. Checkpointing leaves Sum untouched.
func TestDigesterWindowsLocateDivergence(t *testing.T) {
	feed := func(v float64) *Digester {
		d := NewDigester()
		for _, ev := range []trace.Event{
			{T: 1, Kind: trace.KindDeliver, Node: 1, Other: 2, Value: 1e-9},
			{T: 12, Kind: trace.KindDeliver, Node: 2, Other: 1, Value: 1e-9},
			{T: 25, Kind: trace.KindDeliver, Node: 1, Other: 2, Value: v},
			{T: 25, Kind: trace.KindHeadChange, Node: 2, Other: 1, Value: -1},
			{T: 47, Kind: trace.KindRoleChange, Node: 1, Other: -1, Value: 2},
		} {
			d.Observe(ev)
		}
		return d
	}
	a, b := feed(1e-9), feed(2e-9)
	sa, sb := a.Sum(), b.Sum()
	if sa == sb {
		t.Fatal("differing streams digested identically")
	}
	wa, wb := a.Windows(), b.Windows()
	if len(wa) != 5 || len(wb) != 5 {
		t.Fatalf("got %d and %d windows for events up to t=47, want 5", len(wa), len(wb))
	}
	if wa[4] != sa[:16] || wb[4] != sb[:16] {
		t.Error("last window checkpoint is not the final digest")
	}
	if wa[0] != wb[0] || wa[1] != wb[1] || wa[2] == wb[2] {
		t.Errorf("checkpoints %v vs %v: want equal before t=20, different after", wa, wb)
	}
	if wa[3] != wa[2] {
		t.Error("an empty window must repeat the previous checkpoint")
	}
	if got := firstDivergence(wa, wb); got != "[20 s, 30 s)" {
		t.Errorf("firstDivergence = %q, want [20 s, 30 s)", got)
	}
	if got := firstDivergence(wa, wa[:3]); got != "[30 s, 40 s)" {
		t.Errorf("firstDivergence on a truncated run = %q, want [30 s, 40 s)", got)
	}
	if a.Sum() != sa || len(a.Windows()) != 5 {
		t.Error("a repeated Sum changed the digest or its windows")
	}
}

// A configuration simnet rejects surfaces as DigestRun's error, not as a
// digest of an empty run.
func TestDigestRunReportsConfigErrors(t *testing.T) {
	if dig, res, err := DigestRun(simnet.Config{N: -1}); err == nil {
		t.Errorf("DigestRun(N=-1) = %+v, %v, want an error", dig, res)
	}
}
