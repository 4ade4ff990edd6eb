package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"mobic/internal/cluster"
	"mobic/internal/geom"
	"mobic/internal/mobility"
	"mobic/internal/radio"
	"mobic/internal/simnet"
)

// City-scale inputs: N nodes at the paper's density (50 nodes on 670 m x
// 670 m), Tx 250 m, random waypoint at 20 m/s, 300 simulated seconds.
const (
	cityNodes    = 2000
	cityDuration = 300.0
	cityTx       = 250.0
	citySpeed    = 20.0
	// citySetups is how many times each run builds the network on its own
	// to time simnet.New.
	citySetups = 25
	// cityMinUnits keeps one repeat simulation in every run.
	cityMinUnits = 2
)

// cityConfig builds the city-scale configuration the way mobic.Run builds
// a Scenario: MOBIC, two-ray ground propagation seeded from the scenario
// seed, and the paper's defaults for everything else.
func cityConfig(seed uint64) (simnet.Config, error) {
	side := 670 * math.Sqrt(cityNodes/50.0)
	area := geom.NewRect(side, side)
	prop, err := radio.New("tworay", rand.New(rand.NewPCG(seed, 0x0bad)))
	if err != nil {
		return simnet.Config{}, err
	}
	return simnet.Config{
		N:           cityNodes,
		Area:        area,
		Duration:    cityDuration,
		Seed:        seed,
		Algorithm:   cluster.MOBIC,
		Mobility:    &mobility.RandomWaypoint{Area: area, MaxSpeed: citySpeed},
		Propagation: prop,
		TxRange:     cityTx,
	}, nil
}

// cityUnit is one simulation: simnet.New then Network.Run.
type cityUnit struct {
	out        []byte // simnet.Result JSON
	err        error
	newS, runS float64
	wall, cpu  float64
}

func simulateCity(opt options, set *probeSet, tr *tracer) cityUnit {
	var u cityUnit
	cfg, err := cityConfig(opt.seed)
	if err != nil {
		return cityUnit{err: err}
	}
	if set != nil {
		set.mutate(&cfg)
	}
	root := tr.open(0, "simulation", "city-scale")
	start, cpu0 := time.Now(), cpuSeconds()
	net, err := simnet.New(cfg)
	built := time.Now()
	var res *simnet.Result
	if err == nil {
		res, err = net.Run()
	}
	end := time.Now()
	u.wall, u.cpu = end.Sub(start).Seconds(), cpuSeconds()-cpu0
	u.newS, u.runS = built.Sub(start).Seconds(), end.Sub(built).Seconds()
	tr.close(root)
	newID := tr.add(root, "simnet.New", "city-scale", start.UnixNano(), built.UnixNano())
	if set != nil && tr != nil {
		p := set.probes[len(set.probes)-1]
		tr.add(newID, "mobility.Generate", "city-scale", p.genStart, p.genEnd)
	}
	tr.add(root, "Network.Run", "city-scale", built.UnixNano(), end.UnixNano())
	if err == nil {
		u.out, err = json.Marshal(res)
	}
	u.err = err
	return u
}

// timeCityNew builds the network without running it and returns the time
// simnet.New took. Every build starts from a collected heap, so the time
// does not depend on how much garbage earlier builds left.
func timeCityNew(seed uint64) (float64, error) {
	cfg, err := cityConfig(seed)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	_, err = simnet.New(cfg)
	return time.Since(start).Seconds(), err
}

func runCityScale(opt options) (*report, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var setups []float64
	for range citySetups {
		s, err := timeCityNew(opt.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	var units []cityUnit
	start := time.Now()
	for len(units) < cityMinUnits || time.Since(start).Seconds() < opt.seconds {
		units = append(units, simulateCity(opt, nil, nil))
		if opt.traced {
			break // the traced pass below is the second unit
		}
	}
	first := units[0]
	for _, u := range units {
		checkCityUnit(rep, opt, refs, first, u)
	}
	if opt.record && first.err == nil {
		if err := recordReferences(func(r *references) { r.CityScale = first.out }); err != nil {
			return nil, err
		}
	}

	if opt.traced {
		return rep, traceCityScale(rep, opt, refs, first)
	}

	var walls, cpus, nsPerNodeS, lat []float64
	for _, u := range units {
		walls = append(walls, u.wall)
		cpus = append(cpus, u.cpu)
		nsPerNodeS = append(nsPerNodeS, u.runS*1e9/(cityNodes*cityDuration))
		lat = append(lat, u.wall*1e3)
	}
	rep.set("wall_s", median(walls), "s")
	rep.set("cpu_s", median(cpus), "s")
	rep.set("ns_per_node_s", median(nsPerNodeS), "ns")
	rep.set("jobs_per_s", float64(len(units))/sum(walls), "1/s")
	// The first simulation of the process is the fresh request; every
	// later one repeats it exactly.
	rep.latencyMetrics(lat[:1], lat[1:])
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.notes["units"] = float64(len(units))
	return rep, nil
}

// checkCityUnit checks u's Result against the run's first unit and, at
// the default seed, against the pinned reference.
func checkCityUnit(rep *report, opt options, refs references, first, u cityUnit) {
	switch {
	case u.err != nil:
		rep.check(false, "city-scale: %v", u.err)
	case string(u.out) != string(first.out):
		rep.check(false, "city-scale: Result differs between simulations of one run")
	case opt.seed == defaultSeed && !opt.record && !sameJSON(u.out, refs.CityScale):
		rep.check(false, "city-scale: Result differs from testdata/reference.json")
	default:
		rep.check(true, "")
	}
}

// traceCityScale simulates once more with every hook installed, proves the
// hooks inert, and reports the per-layer metrics.
func traceCityScale(rep *report, opt options, refs references, untraced cityUnit) error {
	tr := &tracer{}
	// The run is recorded for the replays: every broadcast, and the
	// deliveries to every 8th node.
	set := newProbeSet(true, 1, 1, 8)
	traced := simulateCity(opt, set, tr)
	checkCityUnit(rep, opt, refs, untraced, traced)
	if err := simLayers(rep, set, nil, traced.wall, 1); err != nil {
		return err
	}
	rep.set("trace.overhead_frac", traced.wall/untraced.wall-1, "frac")
	rep.notes["untraced_wall_s"] = untraced.wall
	rep.notes["traced_wall_s"] = traced.wall
	if err := serveProbe(rep, opt, tr); err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}
	return tr.write("city-scale", opt.seed)
}
