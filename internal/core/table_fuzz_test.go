package core

import (
	"math"
	"slices"
	"testing"

	"mobic/internal/stats"
)

// refSample, refTracker and their methods are the map-plus-sort tracker that
// the id-sorted Table replaced, kept with their logic unchanged as the oracle
// FuzzNeighborTable checks the table against. Only the names, the error
// text and the option plumbing (alphas passed to the constructor) differ.
type refSample struct {
	prevPr, lastPr float64
	prevT, lastT   float64
	count          int // receptions recorded (saturates at 2)
	// smoothedRel is the per-neighbor EWMA of Mrel (pairwise history).
	smoothedRel float64
	smoothed    bool
}

type refTracker struct {
	neighbors map[int32]*refSample
	smoother  *stats.EWMA
	pairAlpha float64
	scratch   []float64
	idScratch []int32
	free      []*refSample
}

func newRefTracker(ewma, pairAlpha float64) *refTracker {
	t := &refTracker{neighbors: make(map[int32]*refSample)}
	if ewma > 0 {
		t.smoother = stats.NewEWMA(ewma)
	}
	t.pairAlpha = pairAlpha
	return t
}

func (tr *refTracker) Observe(id int32, t, rxPr float64) error {
	if !(rxPr > 0) || math.IsInf(rxPr, 1) || math.IsNaN(rxPr) {
		return ErrNonPositivePower
	}
	s, ok := tr.neighbors[id]
	if !ok {
		if k := len(tr.free); k > 0 {
			s = tr.free[k-1]
			tr.free[k-1] = nil
			tr.free = tr.free[:k-1]
			*s = refSample{}
		} else {
			s = &refSample{}
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

func (tr *refTracker) Expire(now, timeout float64) int {
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

func (tr *refTracker) Pairwise(dst []float64) []float64 {
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
			continue
		}
		dst = append(dst, rel)
	}
	return dst
}

func (tr *refTracker) Aggregate() float64 {
	tr.scratch = tr.Pairwise(tr.scratch[:0])
	m := AggregateLocalMobility(tr.scratch)
	if tr.smoother != nil {
		return tr.smoother.Update(m)
	}
	return m
}

func (tr *refTracker) Reset() {
	for _, s := range tr.neighbors {
		tr.free = append(tr.free, s)
	}
	clear(tr.neighbors)
	if tr.smoother != nil {
		tr.smoother.Reset()
	}
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// FuzzNeighborTable is a differential test of the id-sorted Table against
// the map-plus-sort reference tracker it replaced. The first byte picks the
// smoothing options; every following 4-byte record is one call:
//
//	op%4 == 0: Hear(id, t, pr)     id = b1%32, t advances by (b2%8)/2 s,
//	                               pr = b3*1e-10 W (b3 == 0 is invalid);
//	                               Observe instead when b2&8 is set
//	op%4 == 1: Purge(now, tp)      tp = (b1%64)/8 s; Expire when b1&64
//	op%4 == 2: Aggregate()
//	op%4 == 3: Reset()
//
// After every call, Pairwise must match the reference bit for bit, and the
// table must stay strictly sorted by id. Purge must drop as many neighbors
// as the reference's Expire and report them in ascending id order.
func FuzzNeighborTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 10, 0, 1, 2, 12, 2, 0, 0, 0})
	f.Add([]byte{0x0b, 0, 5, 2, 40, 0, 3, 0, 41, 0, 5, 2, 20, 0, 3, 1, 90, 1, 12, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0x15, 0, 31, 1, 1, 0, 31, 1, 255, 0, 0, 7, 9, 1, 4, 0, 0, 0, 31, 7, 3, 3, 0, 0, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var opts []Option
		var ewma, pair float64
		alpha := float64(1+data[0]%7) / 8
		if data[0]&0x08 != 0 {
			ewma = alpha
			opts = append(opts, WithEWMA(alpha))
		}
		if data[0]&0x10 != 0 {
			pair = alpha
			opts = append(opts, WithPairwiseEWMA(alpha))
		}
		tb := NewTable[uint8](opts...)
		ref := newRefTracker(ewma, pair)
		now := 0.0
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			op, b1, b2, b3 := ops[0], ops[1], ops[2], ops[3]
			switch op % 4 {
			case 0:
				id := int32(b1 % 32)
				now += float64(b2%8) / 2
				pr := float64(b3) * 1e-10
				refErr := ref.Observe(id, now, pr)
				if b2&8 != 0 {
					if err := tb.Observe(id, now, pr); (err == nil) != (refErr == nil) {
						t.Fatalf("Observe(%d, %g, %g) err = %v, reference %v", id, now, pr, err, refErr)
					}
					break
				}
				_, had := tb.find(id)
				added, err := tb.Hear(id, now, pr, b3)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("Hear(%d, %g, %g) err = %v, reference %v", id, now, pr, err, refErr)
				}
				if err == nil && added == had {
					t.Fatalf("Hear(%d) added = %v with neighbor present = %v", id, added, had)
				}
				if i, ok := tb.find(id); err == nil && (!ok || tb.entries[i].Payload != b3) {
					t.Fatalf("Hear(%d) did not store payload %d", id, b3)
				}
			case 1:
				tp := float64(b1%64) / 8
				if b1&64 != 0 {
					if got, want := tb.Expire(now, tp), ref.Expire(now, tp); got != want {
						t.Fatalf("Expire(%g, %g) dropped %d, reference %d", now, tp, got, want)
					}
					break
				}
				var ids []int32
				got := tb.Purge(now, tp, func(id int32) { ids = append(ids, id) })
				if want := ref.Expire(now, tp); got != want {
					t.Fatalf("Purge(%g, %g) dropped %d, reference %d", now, tp, got, want)
				}
				if len(ids) != got || !slices.IsSorted(ids) {
					t.Fatalf("Purge reported %v for %d drops, want ascending ids", ids, got)
				}
			case 2:
				got, want := tb.Aggregate(), ref.Aggregate()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Aggregate = %v, reference %v", got, want)
				}
			case 3:
				tb.Reset()
				ref.Reset()
			}
			if got, want := tb.Pairwise(nil), ref.Pairwise(nil); !sameBits(got, want) {
				t.Fatalf("after op %d: Pairwise = %v, reference %v", op%4, got, want)
			}
			ids, entries := tb.IDs(), tb.Entries()
			if len(ids) != len(ref.neighbors) || len(entries) != len(ids) {
				t.Fatalf("table holds %d ids and %d entries, reference %d neighbors",
					len(ids), len(entries), len(ref.neighbors))
			}
			for i, id := range ids {
				if i > 0 && ids[i-1] >= id {
					t.Fatalf("ids out of order: %d before %d", ids[i-1], id)
				}
				if s := ref.neighbors[id]; s == nil || entries[i].lastT != s.lastT {
					t.Fatalf("neighbor %d: entry %+v, reference %+v", id, entries[i], s)
				}
			}
		}
	})
}
