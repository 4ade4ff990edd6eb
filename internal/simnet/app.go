package simnet

import (
	"slices"

	"mobic/internal/cluster"
	"mobic/internal/geom"
)

// Payload is an application-defined packet body.
type Payload any

// App is a protocol running on top of the clustered MANET — the slot a
// cluster-based routing protocol like CBRP plugs into (paper Sections 3.2
// and 5). Apps send one-hop broadcasts and unicasts through the same
// channel (propagation model, receive threshold, loss model) as the hello
// protocol; multi-hop forwarding is the app's own business.
type App interface {
	// Name identifies the app in traces and results.
	Name() string
	// Start runs once before the simulation begins; the app keeps the API
	// handle for sending and scheduling.
	Start(api AppAPI)
	// OnBroadcast delivers a one-hop broadcast payload at node `at`.
	OnBroadcast(now float64, from, at int32, payload Payload)
	// OnUnicast delivers a unicast payload at node `at`.
	OnUnicast(now float64, from, at int32, payload Payload)
}

// AppAPI is the interface the network exposes to apps.
type AppAPI interface {
	// Now returns the current simulated time.
	Now() float64
	// NodeCount returns the number of nodes.
	NodeCount() int
	// Broadcast delivers payload to every node in range of `from` after
	// the configured hop delay. It returns the number of receivers.
	Broadcast(from int32, payload Payload) int
	// Unicast delivers payload to `to` if it is in range of `from` (and
	// the loss model spares the packet). It reports whether the packet
	// will be delivered.
	Unicast(from, to int32, payload Payload) bool
	// After schedules fn on the simulation clock.
	After(delay float64, fn func(now float64)) error
	// Role returns a node's current clustering role.
	Role(id int32) cluster.Role
	// Head returns a node's current clusterhead (NoHead if none).
	Head(id int32) int32
	// AudibleHeads returns the clusterheads currently in a node's
	// neighbor table — what the node itself knows, not ground truth — in
	// ascending ID order.
	AudibleHeads(id int32) []int32
	// Neighbors returns every entry in a node's hello neighbor table, in
	// ascending ID order (deterministic).
	Neighbors(id int32) []int32
	// Rand returns a deterministic float64 in [0, 1) from the app stream.
	Rand() float64
}

// appAPI implements AppAPI for one network.
type appAPI struct {
	n   *Network
	rng interface{ Float64() float64 }
}

var _ AppAPI = (*appAPI)(nil)

func (a *appAPI) Now() float64   { return a.n.sched.Now() }
func (a *appAPI) NodeCount() int { return len(a.n.nodes) }
func (a *appAPI) Rand() float64  { return a.rng.Float64() }

func (a *appAPI) Role(id int32) cluster.Role { return a.n.nodes[id].cnode.Role() }
func (a *appAPI) Head(id int32) int32        { return a.n.nodes[id].cnode.Head() }

func (a *appAPI) AudibleHeads(id int32) []int32 {
	table := a.n.nodes[id].table
	entries := table.Entries()
	var out []int32
	for i, nid := range table.IDs() {
		if entries[i].Payload.role == cluster.RoleHead {
			out = append(out, nid)
		}
	}
	return out
}

func (a *appAPI) Neighbors(id int32) []int32 {
	return slices.Clone(a.n.nodes[id].table.IDs())
}

func (a *appAPI) After(delay float64, fn func(now float64)) error {
	// Apps get no cancel handle, so the event can come from the
	// scheduler's free list.
	return a.n.sched.AfterPooled(delay, fn)
}

// Broadcast schedules delivery at every in-range node after the hop delay.
func (a *appAPI) Broadcast(from int32, payload Payload) int {
	n := a.n
	txPos := n.nodes[from].traj.At(n.sched.Now())
	receivers := 0
	for _, rx := range n.nodes {
		if rx.id == from {
			continue
		}
		if !n.reachableAt(from, rx, txPos) {
			continue
		}
		receivers++
		rxID := rx.id
		if err := n.sched.AfterPooled(n.cfg.HopDelay, func(t float64) {
			for _, app := range n.cfg.Apps {
				app.OnBroadcast(t, from, rxID, payload)
			}
		}); err != nil {
			return receivers
		}
	}
	return receivers
}

// Unicast schedules delivery at `to` if in range.
func (a *appAPI) Unicast(from, to int32, payload Payload) bool {
	n := a.n
	if to < 0 || int(to) >= len(n.nodes) || to == from {
		return false
	}
	txPos := n.nodes[from].traj.At(n.sched.Now())
	if !n.reachableAt(from, n.nodes[to], txPos) {
		return false
	}
	if err := n.sched.AfterPooled(n.cfg.HopDelay, func(t float64) {
		for _, app := range n.cfg.Apps {
			app.OnUnicast(t, from, to, payload)
		}
	}); err != nil {
		return false
	}
	return true
}

// reachableAt applies the propagation threshold and the loss model for one
// app-layer packet from -> rx transmitted from txPos at the current instant.
func (n *Network) reachableAt(from int32, rx *runtimeNode, txPos geom.Point) bool {
	if n.down[rx.id] || n.down[from] {
		return false
	}
	rxPos := rx.traj.At(n.sched.Now())
	pr := n.cfg.Propagation.RxPower(n.cfg.TxPower, txPos.Dist(rxPos))
	if pr < n.rxThresh {
		return false
	}
	return !n.cfg.Loss.Drops(from, rx.id, n.sched.Now())
}
