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

// sample is one neighbor's reception history: the two most recent received
// powers and their timestamps. Two successive receptions are exactly what
// equation 1 needs; older history is deliberately not kept (the paper's
// "history" extension smooths the aggregate M instead, see Option WithEWMA).
type sample struct {
	prevPr, lastPr float64
	prevT, lastT   float64
	count          int // receptions recorded (saturates at 2)
	// smoothedRel is the per-neighbor EWMA of Mrel (pairwise history).
	smoothedRel float64
	smoothed    bool
}

// Option configures a Tracker.
type Option func(*Tracker)

// WithEWMA enables the Section 5 history extension: successive aggregate
// mobility values are smoothed with an exponentially weighted moving average
// of factor alpha in (0, 1]; alpha = 1 reproduces the memoryless paper
// metric.
func WithEWMA(alpha float64) Option {
	return func(t *Tracker) {
		t.smoother = stats.NewEWMA(alpha)
	}
}

// WithPairwiseEWMA enables the alternative history placement: each
// neighbor's relative-mobility samples are smoothed individually before the
// variance is taken, instead of smoothing the aggregate. This remembers
// per-link trends (a steadily approaching neighbor keeps a large |Mrel|)
// where aggregate smoothing only remembers overall turbulence.
func WithPairwiseEWMA(alpha float64) Option {
	return func(t *Tracker) {
		if alpha <= 0 || alpha > 1 {
			alpha = 1
		}
		t.pairAlpha = alpha
	}
}

// Tracker maintains, for one node, the reception history of every current
// neighbor and computes the aggregate local mobility metric on demand. It is
// the per-node state behind MOBIC.
//
// Tracker is not safe for concurrent use; the simulator is single-threaded.
type Tracker struct {
	neighbors map[int32]*sample
	smoother  *stats.EWMA
	// pairAlpha, when in (0, 1), smooths each neighbor's Mrel stream
	// before aggregation (WithPairwiseEWMA); 0 disables.
	pairAlpha float64
	// scratch avoids a per-Aggregate allocation on the simulator hot path.
	scratch []float64
	// idScratch holds the sorted neighbor ids Pairwise iterates over, so
	// the variance fold is independent of map iteration order (floating-
	// point addition is not associative; a canonical order keeps repeated
	// runs bit-identical).
	idScratch []int32
	// free recycles expired samples: under a lossy MAC, neighbors expire
	// and reappear every few beacons, and re-allocating their history
	// records would be the last allocation on the simulator hot path.
	free []*sample
}

// NewTracker returns an empty tracker.
func NewTracker(opts ...Option) *Tracker {
	t := &Tracker{neighbors: make(map[int32]*sample)}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Observe records the reception of a hello from neighbor id at time t with
// received power rxPr (Watts). Calls must be monotone in t per neighbor.
func (tr *Tracker) Observe(id int32, t, rxPr float64) error {
	if !(rxPr > 0) || math.IsInf(rxPr, 1) || math.IsNaN(rxPr) {
		return fmt.Errorf("%w: %g from neighbor %d", ErrNonPositivePower, rxPr, id)
	}
	s, ok := tr.neighbors[id]
	if !ok {
		if k := len(tr.free); k > 0 {
			s = tr.free[k-1]
			tr.free[k-1] = nil
			tr.free = tr.free[:k-1]
			*s = sample{}
		} else {
			s = &sample{}
		}
		tr.neighbors[id] = s
	}
	s.prevPr, s.prevT = s.lastPr, s.lastT
	s.lastPr, s.lastT = rxPr, t
	if s.count < 2 {
		s.count++
	}
	if s.count >= 2 && tr.pairAlpha > 0 && tr.pairAlpha < 1 {
		rel, err := RelativeMobility(s.prevPr, s.lastPr)
		if err == nil {
			if !s.smoothed {
				s.smoothedRel = rel
				s.smoothed = true
			} else {
				s.smoothedRel = tr.pairAlpha*rel + (1-tr.pairAlpha)*s.smoothedRel
			}
		}
	}
	return nil
}

// Forget drops neighbor id entirely (e.g., on an explicit leave).
func (tr *Tracker) Forget(id int32) {
	if s, ok := tr.neighbors[id]; ok {
		delete(tr.neighbors, id)
		tr.free = append(tr.free, s)
	}
}

// Expire purges neighbors not heard since now-timeout and returns how many
// were dropped. This implements the paper's heuristic that only nodes that
// participated in recent successive transmissions count toward M, combined
// with the hello protocol's timeout period (Table 1: TP).
func (tr *Tracker) Expire(now, timeout float64) int {
	dropped := 0
	for id, s := range tr.neighbors {
		if s.lastT < now-timeout {
			delete(tr.neighbors, id)
			tr.free = append(tr.free, s)
			dropped++
		}
	}
	return dropped
}

// NeighborCount returns the number of tracked neighbors (any reception count).
func (tr *Tracker) NeighborCount() int { return len(tr.neighbors) }

// EligibleCount returns the number of neighbors with at least two receptions,
// i.e. those contributing to the aggregate metric.
func (tr *Tracker) EligibleCount() int {
	n := 0
	for _, s := range tr.neighbors {
		if s.count >= 2 {
			n++
		}
	}
	return n
}

// Pairwise appends the pairwise relative mobility (dB) for every eligible
// neighbor to dst, in ascending neighbor-id order, and returns the extended
// slice. The canonical order matters: the aggregate sums these values, and
// summing in Go's randomized map order would make the last bits of M — and
// therefore election outcomes — depend on iteration luck.
func (tr *Tracker) Pairwise(dst []float64) []float64 {
	tr.idScratch = tr.idScratch[:0]
	for id, s := range tr.neighbors {
		if s.count >= 2 {
			tr.idScratch = append(tr.idScratch, id)
		}
	}
	slices.Sort(tr.idScratch)
	for _, id := range tr.idScratch {
		s := tr.neighbors[id]
		if s.smoothed {
			dst = append(dst, s.smoothedRel)
			continue
		}
		rel, err := RelativeMobility(s.prevPr, s.lastPr)
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
func (tr *Tracker) Aggregate() float64 {
	tr.scratch = tr.Pairwise(tr.scratch[:0])
	m := AggregateLocalMobility(tr.scratch)
	if tr.smoother != nil {
		return tr.smoother.Update(m)
	}
	return m
}

// Reset clears all neighbor history and smoother state.
func (tr *Tracker) Reset() {
	for _, s := range tr.neighbors {
		tr.free = append(tr.free, s)
	}
	clear(tr.neighbors)
	if tr.smoother != nil {
		tr.smoother.Reset()
	}
}
