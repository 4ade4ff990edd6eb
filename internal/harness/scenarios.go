package harness

import (
	"fmt"

	"mobic/internal/cluster"
	"mobic/internal/scenario"
	"mobic/internal/simnet"
)

// PinnedDuration is the simulated seconds every pinned workload runs for.
// It is deliberately shorter than the paper's 900 s: determinism is a
// property of the event loop, not of the horizon, and a third of the full
// run keeps the golden-digest suite fast enough to live in the default
// `go test ./...` tier (and tolerable under -race).
const PinnedDuration = 300.0

// Workload is one named scenario the harness pins golden digests for.
type Workload struct {
	// Name identifies the workload in golden files ("fig3-tx100", ...).
	Name string
	// Params is the fully specified scenario (Seed is set per golden run).
	Params scenario.Params
}

// Workloads returns the pinned correctness workloads:
//
//   - fig3-tx100: the Figure 3 sweep's 100 m point on the paper's Table 1
//     base scenario (50 nodes, 670x670 m, MaxSpeed 20, PT 0);
//   - table1-tx250: the Table 1 base scenario at its 250 m sweep endpoint,
//     where the network is densest and delivery volume is highest;
//   - fig5-sparse-tx150: the Figure 5 low-density variant (1000x1000 m),
//     exercising the spatial grid with many boundary-straddling queries.
func Workloads() []Workload {
	fig3 := scenario.Base(100)
	fig3.Duration = PinnedDuration
	table1 := scenario.Base(250)
	table1.Duration = PinnedDuration
	fig5 := scenario.Sparse(150)
	fig5.Duration = PinnedDuration
	return []Workload{
		{Name: "fig3-tx100", Params: fig3},
		{Name: "table1-tx250", Params: table1},
		{Name: "fig5-sparse-tx150", Params: fig5},
	}
}

// Algorithms returns the algorithms the harness pins digests for: the
// paper's baseline (LCC), its contribution (MOBIC), and the static-weight
// generalized clustering baseline (DCA) — one per weight kind the election
// can run on.
func Algorithms() []cluster.Algorithm {
	return []cluster.Algorithm{cluster.LCC, cluster.MOBIC, cluster.DCA}
}

// GoldenSeeds are the scenario seeds each (workload, algorithm) pair is
// digested at.
func GoldenSeeds() []uint64 { return []uint64{1, 2} }

// Run is one pinned (workload, algorithm) pair.
type Run struct {
	// Workload is the scenario the pair runs on.
	Workload Workload
	// Algorithm is the clustering algorithm the pair runs.
	Algorithm cluster.Algorithm
}

// PolicyRuns returns the pinned clustering-policy runs, one per policy the
// engine grew beyond the paper's fixed-parameter protocol:
//
//   - policy-adaptive-bi: the Figure 3 base scenario at Tx 100 m with every
//     node floating its own hello interval in [0.5 s, 4 s] by measured
//     mobility (MOBIC election on the adaptively timed beacons);
//   - policy-reassign: the same scenario under adaptive Lowest-ID, whose
//     heads expire their tenure and re-enter election with a demoted
//     effective ID;
//   - policy-energy: the same scenario with a deliberately small 0.5 J
//     battery budget, so the run exercises the whole energy arc — quantized
//     election penalties as batteries drain, threshold-triggered head
//     rotation, and node death through the churn path before the horizon.
//
// Each run is digested at every golden seed, so the policies' event streams
// are pinned exactly like the base algorithm grid.
func PolicyRuns() []Run {
	adaptive := scenario.Base(100)
	adaptive.Duration = PinnedDuration
	adaptive.BIMin, adaptive.BIMax = 0.5, 4

	reassign := scenario.Base(100)
	reassign.Duration = PinnedDuration

	drained := scenario.Base(100)
	drained.Duration = PinnedDuration
	drained.EnergyJ = 0.5

	return []Run{
		{Workload{Name: "policy-adaptive-bi", Params: adaptive}, cluster.MOBIC},
		{Workload{Name: "policy-reassign", Params: reassign}, cluster.AdaptiveLowestID},
		{Workload{Name: "policy-energy", Params: drained}, cluster.MOBIC},
	}
}

// GoldenRuns enumerates every pinned (workload, algorithm) pair: the base
// workload × algorithm grid plus the clustering-policy runs. The golden
// suite iterates exactly this list, so a policy added here is pinned
// automatically.
func GoldenRuns() []Run {
	var runs []Run
	for _, w := range Workloads() {
		for _, alg := range Algorithms() {
			runs = append(runs, Run{Workload: w, Algorithm: alg})
		}
	}
	return append(runs, PolicyRuns()...)
}

// GoldenKey names one golden digest entry.
func GoldenKey(workload, algorithm string, seed uint64) string {
	return fmt.Sprintf("%s/%s/seed%d", workload, algorithm, seed)
}

// Config materializes one pinned run.
func (w Workload) Config(alg cluster.Algorithm, seed uint64) (simnet.Config, error) {
	p := w.Params
	p.Seed = seed
	return p.Config(alg)
}
