package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"mobic/internal/experiment"
)

// paperFigures are the simulated figures of `cmd/experiments -exp paper`
// (Table 1 is an echo and runs nothing).
var paperFigures = []string{"fig3", "fig4", "fig5", "fig6a", "fig6b"}

// paperMinUnits keeps at least 2 x 72 repeated runs in the hit class.
const paperMinUnits = 2

// paperUnit is one regeneration of every paper figure.
type paperUnit struct {
	outputs map[string][]byte // figure id -> experiment.Result JSON (nil on error)
	errs    map[string]error
	wall    float64
	cpu     float64
	probes  *probeSet
}

// regeneratePaper runs every figure once at Table 1 fidelity: 3 seeds per
// cell from the benchmark seed, one runner worker per CPU. rec and tr are
// nil untraced.
func regeneratePaper(opt options, probes *probeSet, rec *layerRecorder, tr *tracer) paperUnit {
	runner := experiment.Runner{
		Seeds:    3,
		BaseSeed: opt.seed,
		Workers:  opt.workers,
		Mutate:   probes.mutate,
	}
	if rec != nil {
		runner.Obs = rec
	}
	u := paperUnit{outputs: map[string][]byte{}, errs: map[string]error{}, probes: probes}
	start, cpu0 := time.Now(), cpuSeconds()
	for _, id := range paperFigures {
		firstProbe, firstCell := len(probes.probes), 0
		if rec != nil {
			firstCell = len(rec.cellSpans)
		}
		fig := tr.open(0, "figure", id)
		d, err := experiment.ByID(id)
		var res *experiment.Result
		if err == nil {
			res, err = d.Run(context.Background(), runner)
		}
		tr.close(fig)
		if err == nil {
			u.outputs[id], err = json.Marshal(res)
		}
		if err != nil {
			u.errs[id] = err
		}
		if tr != nil {
			traceRuns(tr, fig, id, rec.cellSpans[firstCell:], probes.probes[firstProbe:])
		}
	}
	u.wall, u.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	return u
}

// traceRuns records each runner replication span under its figure, and
// each simulation's simnet.New, trajectory generation and Network.Run under
// the replication span that contains it.
func traceRuns(tr *tracer, fig int, id string, cells [][2]int64, probes []*runProbe) {
	ids := make([]int, len(cells))
	for i, c := range cells {
		ids[i] = tr.add(fig, "run", id, c[0], c[1])
	}
	for _, p := range probes {
		parent, best := fig, int64(-1)
		for i, c := range cells {
			if c[0] <= p.genStart && c[1] >= p.runEnd && c[0] > best {
				parent, best = ids[i], c[0]
			}
		}
		newID := tr.add(parent, "simnet.New", id, p.genStart, p.runStart)
		tr.add(newID, "mobility.Generate", id, p.genStart, p.genEnd)
		tr.add(parent, "Network.Run", id, p.runStart, p.runEnd)
	}
}

func runPaperFigs(opt options) (*report, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var units []paperUnit
	start := time.Now()
	for len(units) < paperMinUnits || time.Since(start).Seconds() < opt.seconds {
		units = append(units, regeneratePaper(opt, newProbeSet(false, 0, 0, 1), nil, nil))
		if opt.traced {
			break // the traced pass below is the second unit
		}
	}
	first := units[0]
	for _, u := range units {
		checkPaperUnit(rep, opt, refs, first, u)
	}
	if opt.record {
		if err := recordReferences(func(r *references) {
			r.PaperFigs = map[string]json.RawMessage{}
			for id, out := range first.outputs {
				r.PaperFigs[id] = out
			}
		}); err != nil {
			return nil, err
		}
	}

	if opt.traced {
		return rep, tracePaperFigs(rep, opt, refs, first)
	}

	var walls, cpus, nsPerNodeS, setups, freshMS, hitMS []float64
	runs := 0
	for _, u := range units {
		walls = append(walls, u.wall)
		cpus = append(cpus, u.cpu)
		var runNs, nodeS, newS float64
		for i, p := range u.probes.probes {
			runNs += float64(p.runDur().Nanoseconds())
			nodeS += p.nodeSeconds()
			newS += p.newDur().Seconds()
			ms := float64(p.wallDur().Nanoseconds()) / 1e6
			if u.probes.isDuplicate(i) {
				hitMS = append(hitMS, ms)
			} else {
				freshMS = append(freshMS, ms)
			}
		}
		runs += len(u.probes.probes)
		nsPerNodeS = append(nsPerNodeS, ratio(runNs, nodeS))
		setups = append(setups, newS)
	}
	rep.set("wall_s", median(walls), "s")
	rep.set("cpu_s", median(cpus), "s")
	rep.set("ns_per_node_s", median(nsPerNodeS), "ns")
	rep.set("jobs_per_s", float64(runs)/sum(walls), "1/s")
	rep.latencyMetrics(freshMS, hitMS)
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.notes["units"] = float64(len(units))
	rep.notes["runs_per_unit"] = float64(runs / len(units))
	return rep, nil
}

// checkPaperUnit checks each figure of u against the run's first unit and,
// at the default seed, against the pinned reference.
func checkPaperUnit(rep *report, opt options, refs references, first, u paperUnit) {
	for _, id := range paperFigures {
		out := u.outputs[id]
		switch {
		case u.errs[id] != nil:
			rep.check(false, "%s: %v", id, u.errs[id])
		case string(out) != string(first.outputs[id]):
			rep.check(false, "%s: output differs between regenerations of one run", id)
		case opt.seed == defaultSeed && !opt.record && !sameJSON(out, refs.PaperFigs[id]):
			rep.check(false, "%s: output differs from testdata/reference.json", id)
		default:
			rep.check(true, "")
		}
	}
}

// tracePaperFigs regenerates the figures once more with every hook
// installed, proves the hooks inert, and reports the per-layer metrics.
func tracePaperFigs(rep *report, opt options, refs references, untraced paperUnit) error {
	rec := &layerRecorder{}
	tr := &tracer{}
	// Every 13th run (18 of 234) is recorded for the core and spatial
	// replays, with the deliveries to every other node, which keeps the
	// recordings near 100 MB.
	traced := regeneratePaper(opt, newProbeSet(true, 13, 18, 2), rec, tr)
	checkPaperUnit(rep, opt, refs, untraced, traced)

	// A repeated run must replay its first occurrence's event stream.
	set := traced.probes
	for i, p := range set.probes {
		if set.isDuplicate(i) {
			first := set.probes[set.seen[p.key]]
			rep.check(p.hash == first.hash, "repeated run %s: event stream differs from its first run", p.key)
		}
	}
	if err := simLayers(rep, set, rec, traced.wall, opt.workers); err != nil {
		return err
	}
	rep.set("trace.overhead_frac", traced.wall/untraced.wall-1, "frac")
	rep.notes["untraced_wall_s"] = untraced.wall
	rep.notes["traced_wall_s"] = traced.wall
	if err := serveProbe(rep, opt, tr); err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}
	return tr.write("paper-figs", opt.seed)
}
