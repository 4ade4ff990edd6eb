package main

import (
	"mobic/internal/obs"
)

// simLayers reports the per-layer metrics of the simulation layers (sim,
// mobility, radio, spatial, core, cluster, simnet, experiment) from a
// traced pass's probes, its runner-level recorder (nil when the workload
// bypasses experiment.Runner), and the replays of its sampled runs.
// wall is the traced pass's wall time and slots the number of
// simulations that could run at once.
func simLayers(rep *report, set *probeSet, rec *layerRecorder, wall float64, slots int) error {
	st, err := replay(set)
	if err != nil {
		return err
	}
	var newS, runS, genS, nodes float64
	var runWalls []float64
	for _, p := range set.probes {
		newS += p.newDur().Seconds()
		runS += p.runDur().Seconds()
		genS += float64(p.genEnd-p.genStart) / 1e9
		nodes += float64(p.n)
		runWalls = append(runWalls, p.wallDur().Seconds())
	}
	events := float64(set.total(obs.SimEventsFired))
	beacons := float64(set.total(obs.NetBeaconsSent))
	deliveries := float64(set.total(obs.NetDeliveries))
	var waypoints, rxCalls, contentions float64
	for _, p := range set.probes {
		waypoints += float64(p.waypoints)
		rxCalls += float64(p.rxCalls - 1) // one call calibrates the receive threshold in simnet.New
		contentions += float64(p.contentions)
	}
	var distances []float64
	for _, p := range set.probes {
		distances = append(distances, p.distanceSample...)
	}

	rep.set("sim.events", events, "count")
	rep.set("sim.events_pooled_frac", ratio(float64(set.total(obs.SimEventsPooled)), events), "frac")
	rep.set("sim.ns_per_event", ratio(runS*1e9, events), "ns")

	rep.set("mobility.generate_s", genS, "s")
	rep.set("mobility.waypoints", waypoints, "count")

	rep.set("simnet.new_s", newS, "s")
	rep.set("simnet.run_s", runS, "s")
	rep.set("simnet.ns_per_delivery", ratio(runS*1e9, deliveries), "ns")
	rep.set("simnet.beacons", beacons, "count")
	rep.set("simnet.deliveries", deliveries, "count")
	rep.set("simnet.collisions", float64(set.total(obs.NetCollisions)), "count")
	rep.set("simnet.neighbor_adds_per_node", ratio(float64(set.total(obs.NetNeighborAdds)), nodes), "count")
	rep.set("simnet.neighbor_timeouts", float64(set.total(obs.NetNeighborTimeouts)), "count")

	rep.set("radio.rxpower_calls", rxCalls, "count")
	rep.set("radio.rxpower_s", rxCalls*rxPowerNs(distances)/1e9, "s")

	// Replayed figures cover the sampled runs and are scaled to the whole
	// pass by the matching exact count.
	rep.set("spatial.candidates_per_beacon", ratio(rxCalls, beacons), "count")
	rep.set("spatial.precision", ratio(deliveries, rxCalls), "frac")
	rep.set("spatial.query_s", ratio(float64(st.queryNs), float64(st.queries))*beacons/1e9, "s")
	rep.set("core.observe_s", ratio(float64(st.observeNs), float64(st.deliveries))*deliveries/1e9, "s")
	rep.set("core.aggregate_s", ratio(float64(st.aggregateNs), float64(st.broadcasts))*beacons/1e9, "s")
	rep.set("core.weight_match_frac", ratio(float64(st.matched), float64(st.compared)), "frac")

	rep.set("cluster.role_changes", float64(set.total(obs.NetRoleChanges)), "count")
	rep.set("cluster.head_changes", float64(set.total(obs.NetHeadChanges)), "count")
	rep.set("cluster.contentions", contentions, "count")

	rep.set("experiment.runs", float64(len(set.probes)), "count")
	rep.set("experiment.duplicate_runs", float64(set.dups), "count")
	cellSecs := runWalls
	if rec != nil {
		cellSecs = rec.cellSecs
	}
	rep.set("experiment.run_p50_s", median(cellSecs), "s")
	rep.set("experiment.busy_frac", ratio(sum(cellSecs), wall*float64(slots)), "frac")

	rep.notes["replay.runs"] = float64(st.runs)
	rep.notes["replay.weights_compared"] = float64(st.compared)
	// The spatial replay must find exactly the candidates the engine
	// computed received power for; a difference means the replay no longer
	// mirrors Network.broadcast and spatial.query_s is not comparable.
	rep.notes["replay.candidates_minus_rxpower_calls"] = float64(st.candidates - st.rxCalls)
	return nil
}
