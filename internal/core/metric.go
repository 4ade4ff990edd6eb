// Package core implements the paper's primary contribution: the aggregate
// local mobility metric of Section 3.1.
//
// Every node Y measures the received power of two successive "hello"
// transmissions from each neighbor X and computes the pairwise relative
// mobility (equation 1):
//
//	Mrel_Y(X) = 10 * log10( RxPr_new(X->Y) / RxPr_old(X->Y) )   [dB]
//
// A negative value means X and Y are drifting apart, a positive value that
// they are closing in. The aggregate local mobility at Y (equation 2) is the
// variance about zero of the pairwise values over all current neighbors:
//
//	M_Y = var0(Mrel_Y(X1), ..., Mrel_Y(Xm)) = E[Mrel^2]
//
// A small M_Y means Y is nearly stationary relative to its neighborhood and
// is therefore a good clusterhead candidate; MOBIC (internal/cluster) elects
// the node with the lowest M in each 2-hop neighborhood.
//
// The package also implements the paper's Section 5 extension of keeping
// history: an optional EWMA smoother over successive aggregate values.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mobic/internal/stats"
)

// ErrNonPositivePower is returned when a received power sample is zero,
// negative, NaN or infinite. Physical received powers are strictly positive.
var ErrNonPositivePower = errors.New("core: received power must be positive and finite")

// RelativeMobility returns the pairwise relative mobility metric in dB for
// two successive received powers from the same neighbor (paper equation 1).
func RelativeMobility(prOld, prNew float64) (float64, error) {
	if !(prOld > 0) || math.IsInf(prOld, 1) {
		return 0, fmt.Errorf("%w: old=%g", ErrNonPositivePower, prOld)
	}
	if !(prNew > 0) || math.IsInf(prNew, 1) {
		return 0, fmt.Errorf("%w: new=%g", ErrNonPositivePower, prNew)
	}
	return 10 * math.Log10(prNew/prOld), nil
}

// AggregateLocalMobility returns the variance-about-zero of a set of pairwise
// relative mobility samples (paper equation 2). It returns 0 for an empty
// set, matching the paper's initialization of M to 0.
func AggregateLocalMobility(pairwise []float64) float64 {
	return stats.Var0(pairwise)
}

// Entry is one neighbor's record in a Table: the reception history of paper
// §3.1 — the two most recent received powers and their timestamps, which is
// exactly what equation 1 needs — plus the per-neighbor EWMA state and the
// payload of the neighbor's latest hello. Older history is deliberately not
// kept (the paper's "history" extension smooths M instead, see WithEWMA).
type Entry[T any] struct {
	count          uint8 // receptions recorded (saturates at 2)
	smoothed       bool  // smoothedRel holds a value
	prevPr, lastPr float64
	prevT, lastT   float64
	// smoothedRel is the per-neighbor EWMA of Mrel (pairwise history).
	smoothedRel float64
	// Payload is what the neighbor's latest hello advertised (Hear).
	Payload T
}

// Option configures a Table.
type Option func(*history)

// history holds a table's optional smoothing configuration and state.
type history struct {
	smoother *stats.EWMA
	// pairAlpha, when in (0, 1), smooths each neighbor's Mrel stream
	// before aggregation (WithPairwiseEWMA); 0 disables.
	pairAlpha float64
}

// WithEWMA enables the Section 5 history extension: successive aggregate
// mobility values are smoothed with an exponentially weighted moving average
// of factor alpha in (0, 1]; alpha = 1 reproduces the memoryless paper
// metric.
func WithEWMA(alpha float64) Option {
	return func(h *history) {
		h.smoother = stats.NewEWMA(alpha)
	}
}

// WithPairwiseEWMA enables the alternative history placement: each
// neighbor's relative-mobility samples are smoothed individually before the
// variance is taken, instead of smoothing the aggregate. This remembers
// per-link trends (a steadily approaching neighbor keeps a large |Mrel|)
// where aggregate smoothing only remembers overall turbulence.
func WithPairwiseEWMA(alpha float64) Option {
	return func(h *history) {
		if alpha <= 0 || alpha > 1 {
			alpha = 1
		}
		h.pairAlpha = alpha
	}
}

// Table is one node's neighbor table: an Entry per current neighbor, kept in
// ascending neighbor-id order, with the aggregate local mobility metric
// computed over it on demand. It is the per-node state behind MOBIC; T is
// the hello payload the caller stores per neighbor.
//
// Because the entries are always in ascending id order, every fold over
// them — the variance behind M, the caller's own folds over Entries — runs
// in one canonical order by construction. Floating-point addition is not
// associative, so that order is what keeps repeated runs bit-identical.
//
// The ids live in their own slice, parallel to the entries: the binary
// search behind every reception then reads a few cache lines of dense ids
// instead of striding across whole entries.
//
// A Table grows on demand and keeps its capacity across purges, so a node
// whose neighborhood has stopped growing updates its table without
// allocating. Table is not safe for concurrent use; the simulator is
// single-threaded.
type Table[T any] struct {
	ids     []int32 // sorted ascending; ids[i] is entries[i]'s neighbor
	entries []Entry[T]
	history
	// scratch avoids a per-Aggregate allocation on the simulator hot path.
	scratch []float64
}

// Tracker is a Table that stores no hello payload: the reception history
// and the metric alone.
type Tracker = Table[struct{}]

// NewTable returns an empty table.
func NewTable[T any](opts ...Option) *Table[T] {
	tb := &Table[T]{}
	for _, opt := range opts {
		opt(&tb.history)
	}
	return tb
}

// NewTracker returns an empty tracker.
func NewTracker(opts ...Option) *Tracker { return NewTable[struct{}](opts...) }

// find returns the position of id in the table, or where it would be
// inserted, and whether it is present.
func (tb *Table[T]) find(id int32) (int, bool) {
	ids := tb.ids
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ids) && ids[lo] == id
}

// Observe records the reception of a hello from neighbor id at time t with
// received power rxPr (Watts). Calls must be monotone in t per neighbor.
func (tb *Table[T]) Observe(id int32, t, rxPr float64) error {
	_, _, err := tb.observe(id, t, rxPr)
	return err
}

// Hear is Observe for a table with a payload: it records the reception and
// stores the hello's payload, and reports whether id was new to the table.
func (tb *Table[T]) Hear(id int32, t, rxPr float64, payload T) (added bool, err error) {
	e, added, err := tb.observe(id, t, rxPr)
	if err != nil {
		return false, err
	}
	e.Payload = payload
	return added, nil
}

// observe implements Observe and returns the neighbor's entry and whether it
// was inserted by this call.
func (tb *Table[T]) observe(id int32, t, rxPr float64) (*Entry[T], bool, error) {
	if !(rxPr > 0) || math.IsInf(rxPr, 1) || math.IsNaN(rxPr) {
		return nil, false, fmt.Errorf("%w: %g from neighbor %d", ErrNonPositivePower, rxPr, id)
	}
	i, found := tb.find(id)
	if !found {
		tb.ids = slices.Insert(tb.ids, i, id)
		tb.entries = slices.Insert(tb.entries, i, Entry[T]{})
	}
	e := &tb.entries[i]
	e.prevPr, e.prevT = e.lastPr, e.lastT
	e.lastPr, e.lastT = rxPr, t
	if e.count < 2 {
		e.count++
	}
	if e.count >= 2 && tb.pairAlpha > 0 && tb.pairAlpha < 1 {
		rel, err := RelativeMobility(e.prevPr, e.lastPr)
		if err == nil {
			if !e.smoothed {
				e.smoothedRel = rel
				e.smoothed = true
			} else {
				e.smoothedRel = tb.pairAlpha*rel + (1-tb.pairAlpha)*e.smoothedRel
			}
		}
	}
	return e, !found, nil
}

// Purge drops every neighbor not heard since now-timeout and returns how
// many were dropped. This implements the paper's heuristic that only nodes
// that participated in recent successive transmissions count toward M,
// combined with the hello protocol's timeout period (Table 1: TP).
//
// The purge is one in-place compaction that keeps the table's capacity.
// When dropped is non-nil it is called with each dropped id, in ascending
// order, while the compaction runs; it must not touch the table.
func (tb *Table[T]) Purge(now, timeout float64, dropped func(id int32)) int {
	live := 0
	for i := range tb.entries {
		if tb.entries[i].lastT < now-timeout {
			if dropped != nil {
				dropped(tb.ids[i])
			}
			continue
		}
		tb.ids[live], tb.entries[live] = tb.ids[i], tb.entries[i]
		live++
	}
	n := len(tb.entries) - live
	tb.ids, tb.entries = tb.ids[:live], tb.entries[:live]
	return n
}

// Expire is Purge without a per-id callback.
func (tb *Table[T]) Expire(now, timeout float64) int { return tb.Purge(now, timeout, nil) }

// NeighborCount returns the number of tracked neighbors (any reception count).
func (tb *Table[T]) NeighborCount() int { return len(tb.entries) }

// IDs returns the current neighbor ids in ascending order, and Entries their
// records: Entries()[i] belongs to neighbor IDs()[i]. Both slices alias the
// table: read them, and do not keep them across calls that change the table.
func (tb *Table[T]) IDs() []int32 { return tb.ids }

// Entries returns the records of the neighbors listed by IDs, in the same
// order.
func (tb *Table[T]) Entries() []Entry[T] { return tb.entries }

// Pairwise appends the pairwise relative mobility (dB) for every eligible
// neighbor — one with at least two receptions — to dst, in ascending
// neighbor-id order, and returns the extended slice.
func (tb *Table[T]) Pairwise(dst []float64) []float64 {
	for i := range tb.entries {
		e := &tb.entries[i]
		if e.count < 2 {
			continue
		}
		if e.smoothed {
			dst = append(dst, e.smoothedRel)
			continue
		}
		rel, err := RelativeMobility(e.prevPr, e.lastPr)
		if err != nil {
			// Observe validated both powers; this cannot happen.
			continue
		}
		dst = append(dst, rel)
	}
	return dst
}

// Aggregate computes the aggregate local mobility M for the node right now:
// var0 over all eligible neighbors' pairwise values, passed through the EWMA
// smoother when configured. With no eligible neighbors it returns 0 (the
// paper's initial value) — smoothed, if smoothing is on.
func (tb *Table[T]) Aggregate() float64 {
	tb.scratch = tb.Pairwise(tb.scratch[:0])
	m := AggregateLocalMobility(tb.scratch)
	if tb.smoother != nil {
		return tb.smoother.Update(m)
	}
	return m
}

// Reset clears all neighbor history and smoother state, keeping capacity.
func (tb *Table[T]) Reset() {
	tb.ids, tb.entries = tb.ids[:0], tb.entries[:0]
	if tb.smoother != nil {
		tb.smoother.Reset()
	}
}
