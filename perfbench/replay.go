package main

import (
	"time"

	"mobic/internal/cluster"
	"mobic/internal/core"
	"mobic/internal/radio"
	"mobic/internal/spatial"
)

// replayStats is what the core and spatial replays measured over the
// sampled runs.
type replayStats struct {
	runs        int
	deliveries  int64 // replayed into core
	broadcasts  int64 // replayed into core (Expire + Aggregate)
	queries     int64 // replayed into spatial
	observeNs   int64 // core.Tracker.Observe, timed per broadcast's delivery burst
	aggregateNs int64 // core.Tracker.Expire + Aggregate at each broadcast
	compared    int64 // MOBIC broadcasts whose advertised weight was checked
	matched     int64
	queryNs     int64 // spatial.Grid.Update + QueryRange at each broadcast
	candidates  int64
	rxCalls     int64 // the same runs' RxPower calls during Network.Run
}

// replay feeds every sampled run's recorded deliveries into one
// core.Tracker per receiver, expiring and aggregating at each of a node's
// broadcasts, and checks the aggregate against the weight the node
// advertised in that broadcast (MOBIC). It also replays the run's spatial
// index: at each broadcast the node's grid cell is refreshed and the grid
// is queried around its position, as Network.broadcast does.
func replay(set *probeSet) (replayStats, error) {
	var st replayStats
	for _, p := range set.probes {
		if !p.sampled || len(p.trajs) == 0 {
			continue
		}
		st.runs++
		st.rxCalls += p.rxCalls - 1 // one call calibrates the receive threshold in simnet.New
		if err := replayCore(p, &st); err != nil {
			return st, err
		}
		if err := replaySpatial(p, &st); err != nil {
			return st, err
		}
		// The recording is large; drop it once replayed.
		p.events, p.trajs = nil, nil
	}
	return st, nil
}

func replayCore(p *runProbe, st *replayStats) error {
	var opts []core.Option
	if a := p.alg.EWMAAlpha; a > 0 && a < 1 {
		opts = append(opts, core.WithEWMA(a))
	}
	if a := p.alg.PairwiseEWMAAlpha; a > 0 && a < 1 {
		opts = append(opts, core.WithPairwiseEWMA(a))
	}
	trackers := make([]*core.Tracker, p.n)
	for i := range trackers {
		trackers[i] = core.NewTracker(opts...)
	}
	checkWeight := p.alg.WeightKind == cluster.KindMobility
	burstStart := time.Now()
	for _, ev := range p.events {
		if ev.rx >= 0 {
			st.deliveries++
			if err := trackers[ev.rx].Observe(ev.tx, ev.t, ev.v); err != nil {
				return err
			}
			continue
		}
		if ev.tx%p.rxStride != 0 {
			continue // this node's deliveries were not recorded
		}
		t0 := time.Now()
		st.observeNs += int64(t0.Sub(burstStart))
		tr := trackers[ev.tx]
		tr.Expire(ev.t, p.tp)
		m := tr.Aggregate()
		burstStart = time.Now()
		st.aggregateNs += int64(burstStart.Sub(t0))
		st.broadcasts++
		if checkWeight {
			st.compared++
			if m == ev.v {
				st.matched++
			}
		}
	}
	st.observeNs += int64(time.Since(burstStart))
	return nil
}

// candidateSlack mirrors simnet's query margin for node movement between
// index refreshes: 35 m/s for up to two broadcast intervals.
func candidateSlack(bi float64) float64 { return 35 * bi * 2 }

func replaySpatial(p *runProbe, st *replayStats) error {
	cell := p.tx
	if w := p.area.Width() / 2; cell > w {
		cell = w
	}
	grid, err := spatial.NewGrid(p.area, cell)
	if err != nil {
		return err
	}
	grid.Reserve(p.n)
	for i, tr := range p.trajs {
		grid.Update(int32(i), tr.At(0))
	}
	radius := p.tx + candidateSlack(p.bi)
	var buf []int32
	for _, ev := range p.events {
		if ev.rx >= 0 {
			continue
		}
		pos := p.trajs[ev.tx].At(ev.t)
		t0 := time.Now()
		grid.Update(ev.tx, pos)
		buf = grid.QueryRange(pos, radius, ev.tx, buf[:0])
		st.queryNs += int64(time.Since(t0))
		st.queries++
		st.candidates += int64(len(buf))
	}
	return nil
}

// rxPowerNs replays the recorded distances through the unwrapped two-ray
// model and returns the mean cost of one RxPower call in nanoseconds.
func rxPowerNs(distances []float64) float64 {
	if len(distances) == 0 {
		return 0
	}
	m := radio.NewTwoRayGround()
	var sink float64
	calls := 0
	start := time.Now()
	for time.Since(start) < 20*time.Millisecond {
		for _, d := range distances {
			sink += m.RxPower(radio.DefaultTxPower, d)
		}
		calls += len(distances)
	}
	elapsed := time.Since(start)
	if sink < 0 {
		return 0 // keeps the loop from being optimized away
	}
	return float64(elapsed.Nanoseconds()) / float64(calls)
}
