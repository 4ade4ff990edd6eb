// Package harness is the simulator's correctness and regression subsystem.
// The paper's claims (Figures 3-6, Table 1) rest entirely on a stochastic
// simulator, so every result is only as trustworthy as the simulator's
// reproducibility. This package makes that reproducibility checkable:
//
//   - Digester folds the full event stream of a run (clusterhead elections,
//     membership changes, hello deliveries) into a canonical trace digest,
//     fed by the recording hook simnet.Config.Observer;
//   - golden digests per (scenario, algorithm, seed) are checked in under
//     testdata/ and verified on every test run, so any behavioural change
//     to the hot path is caught, intended or not;
//   - determinism tests prove the digest is invariant across repeated runs,
//     across experiment.Runner worker counts, and across spatial-grid vs
//     brute-force neighbour queries (a differential oracle for
//     internal/spatial);
//   - metamorphic tests check relations no correct simulator can violate
//     (node relabeling, duration extension, warmup accounting).
//
// Together with scripts/bench.sh's benchmark regression gate this is the
// safety net that makes aggressive performance work on simnet and spatial
// safe: a refactor that preserves digests and stays inside the benchmark
// tolerance is behaviour-preserving by construction.
package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"mobic/internal/simnet"
	"mobic/internal/trace"
)

// Digester folds a simulator event stream into a canonical digest. Feed it
// via simnet.Config.Observer and read the digest with Sum after the run.
//
// Only semantically meaningful events are hashed: clusterhead elections and
// resignations (KindRoleChange), membership changes (KindHeadChange), and
// hello deliveries (KindDeliver). Broadcasts, drops and timeouts are
// excluded — they are implied by the deliveries and would make the digest
// needlessly sensitive to bookkeeping-only changes.
//
// Events sharing one timestamp are sorted before hashing. Within a single
// scheduler event (one node's hello broadcast) the simulator may deliver to
// receivers in any order — the spatial grid yields candidates in bucket
// order, a brute-force scan in ID order — and that order is immaterial to
// the simulation's semantics, because deliveries at one instant touch
// disjoint receiver state. Canonicalizing it makes the digest a property of
// the run's behaviour, not of the index implementation, which is exactly
// what lets the grid-vs-brute-force differential test demand byte-equal
// digests.
//
// The digester also checkpoints its running digest every 10 simulated
// seconds (Windows), so two runs whose digests differ can be told apart by
// the first window whose checkpoint differs.
//
// Digester is not safe for concurrent use; a simulation run is
// single-threaded, so one digester per Network is the natural shape.
type Digester struct {
	h       hash.Hash
	t       float64
	group   []trace.Event
	count   uint64
	windows []string
}

// windowSeconds is the width, in simulated seconds, of the windows whose
// running digests Digester checkpoints.
const windowSeconds = 10.0

// NewDigester returns an empty digester.
func NewDigester() *Digester {
	return &Digester{h: sha256.New(), t: math.Inf(-1)}
}

// relevant reports whether ev contributes to the digest.
func relevant(k trace.Kind) bool {
	switch k {
	case trace.KindDeliver, trace.KindRoleChange, trace.KindHeadChange:
		return true
	default:
		return false
	}
}

// Observe feeds one simulator event. Events must arrive in non-decreasing
// timestamp order, which the scheduler guarantees.
func (d *Digester) Observe(ev trace.Event) {
	if !relevant(ev.Kind) {
		return
	}
	if ev.T != d.t {
		d.flush()
		d.checkpoint(ev.T)
		d.t = ev.T
	}
	d.group = append(d.group, ev)
	d.count++
}

// flush canonicalizes and hashes the pending same-timestamp group.
func (d *Digester) flush() {
	if len(d.group) == 0 {
		return
	}
	g := d.group
	sort.Slice(g, func(i, j int) bool {
		if g[i].Kind != g[j].Kind {
			return g[i].Kind < g[j].Kind
		}
		if g[i].Node != g[j].Node {
			return g[i].Node < g[j].Node
		}
		if g[i].Other != g[j].Other {
			return g[i].Other < g[j].Other
		}
		return math.Float64bits(g[i].Value) < math.Float64bits(g[j].Value)
	})
	var buf [25]byte
	for _, ev := range g {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(ev.T))
		buf[8] = byte(ev.Kind)
		binary.LittleEndian.PutUint32(buf[9:], uint32(ev.Node))
		binary.LittleEndian.PutUint32(buf[13:], uint32(ev.Other))
		binary.LittleEndian.PutUint64(buf[17:], math.Float64bits(ev.Value))
		d.h.Write(buf[:])
	}
	d.group = d.group[:0]
}

// checkpoint records the running digest at every window boundary at or
// before t that has not been recorded yet. Observe calls it after flushing
// the previous timestamp's group and before folding in any event at t, so a
// checkpoint covers exactly the events before its boundary.
func (d *Digester) checkpoint(t float64) {
	for t >= float64(len(d.windows)+1)*windowSeconds {
		var sum [sha256.Size]byte
		d.windows = append(d.windows, hex.EncodeToString(d.h.Sum(sum[:0])[:8]))
	}
}

// Windows returns the checkpoints recorded so far: element k is the first
// 16 hex digits of the running digest over every event before
// (k+1)·windowSeconds. After Sum, the last element covers the window that
// holds the final event. Empty windows repeat the previous checkpoint.
func (d *Digester) Windows() []string { return d.windows }

// Count returns the number of events folded in so far.
func (d *Digester) Count() uint64 { return d.count }

// Sum flushes any pending group and returns the hex digest. Call it once,
// after the run completed; further Observe calls after Sum are undefined.
func (d *Digester) Sum() string {
	d.flush()
	d.checkpoint(d.t + windowSeconds)
	return hex.EncodeToString(d.h.Sum(nil))
}

// Digest is one run's canonical trace digest plus the event count that
// produced it. The count makes golden-file diffs legible: a digest mismatch
// with equal counts means changed values, a different count means changed
// structure.
type Digest struct {
	// SHA256 is the hex canonical trace digest.
	SHA256 string `json:"sha256"`
	// Events is the number of digest-relevant events folded in.
	Events uint64 `json:"events"`
}

// DigestRun builds and runs cfg with a fresh digester attached and returns
// the run's canonical digest alongside its result. Any observer already in
// cfg is chained after the digester, so callers can still tap the stream.
func DigestRun(cfg simnet.Config) (Digest, *simnet.Result, error) {
	d, res, err := runDigester(cfg)
	if err != nil {
		return Digest{}, nil, err
	}
	return Digest{SHA256: d.Sum(), Events: d.Count()}, res, nil
}

// runDigester is DigestRun returning the digester itself, so callers can
// read its window checkpoints as well as its digest.
func runDigester(cfg simnet.Config) (*Digester, *simnet.Result, error) {
	d := NewDigester()
	prev := cfg.Observer
	cfg.Observer = func(ev trace.Event) {
		d.Observe(ev)
		if prev != nil {
			prev(ev)
		}
	}
	net, err := simnet.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := net.Run()
	if err != nil {
		return nil, nil, err
	}
	return d, res, nil
}
