package machine

import (
	"fmt"
	"time"

	"asvm/internal/asvm"
	"asvm/internal/mesh"
	"asvm/internal/sim"
	"asvm/internal/xport"
)

// This file is the machine layer of the crash-stop failure model: a seeded
// per-node crash plan executed at virtual times, node teardown across every
// layer (kernel, transport, protocol), and cold rejoin on restart. The
// empty plan is provably inert — nothing here schedules an event, installs
// a handler, or touches a map unless Crashes is non-empty — so the seed-1
// no-crash contract is untouched.

// NodeCrash schedules one node's fate: crash at At and, when Restart is
// later than At, rejoin cold at Restart. Under the schedule explorer each
// due crash is a ChoiceCrash point (survive / crash / crash permanently)
// instead of a certainty.
type NodeCrash struct {
	Node    int
	At      time.Duration
	Restart time.Duration // <= At means the crash is permanent
}

// CrashPlan is a deterministic crash schedule.
type CrashPlan struct {
	Crashes []NodeCrash
}

// Active reports whether the plan schedules anything.
func (p CrashPlan) Active() bool { return len(p.Crashes) > 0 }

// CrashStats accumulates what the failure model did and what it cost.
type CrashStats struct {
	// Crashes/Restarts count executed fates (under the explorer a planned
	// crash may be skipped, so these can undershoot the plan).
	Crashes  int
	Restarts int
	// FaultsAborted counts kernel faults failed with ErrNodeCrashed at
	// the crashing nodes themselves.
	FaultsAborted int
}

// armCrashPlan schedules the plan's fates. Called from New only when the
// plan is active.
func (c *Cluster) armCrashPlan() {
	for _, nc := range c.P.Crash.Crashes {
		if nc.Node < 0 || nc.Node >= c.P.Nodes {
			panic(fmt.Sprintf("machine: crash plan names node %d of %d", nc.Node, c.P.Nodes))
		}
		nc := nc
		c.Eng.Schedule(nc.At, func() {
			alts := 2
			if nc.Restart > nc.At {
				alts = 3
			}
			fate := 1 // production: the plan is a certainty
			if c.Eng.Exploring() {
				// Choice point: 0 survives (the default schedule stays
				// crash-free), 1 crashes per plan, 2 suppresses the restart.
				fate = c.Eng.Choose(sim.ChoiceCrash, alts)
			}
			if fate == 0 || c.crashed[nc.Node] {
				return
			}
			c.CrashNode(nc.Node)
			if nc.Restart > nc.At && fate != 2 {
				c.Eng.Schedule(nc.Restart-nc.At, func() {
					c.RestartNode(nc.Node)
				})
			}
		})
	}
}

// NodeIsCrashed reports whether a node is currently down.
func (c *Cluster) NodeIsCrashed(idx int) bool { return c.crashed[idx] }

// CrashNode executes a crash-stop failure of one node, now, across every
// layer:
//
//  1. the kernel fails its in-flight faults with ErrNodeCrashed and drops
//     task state;
//  2. the reliability layer advances the node's incarnation, gates inbound
//     delivery, and abandons its unacked sends (a dead node's timers fire
//     as no-ops);
//  3. every survivor's transport marks the node down immediately — the
//     failure model is fail-stop with a perfect detector, so survivors
//     fast-fail instead of grinding through retransmit schedules — and
//     in-flight frames toward it bounce back as Nacks;
//  4. the protocol scrubs the dead node from each region it mapped
//     (asvm.CrashRecover): survivors re-drive faults, drop its read
//     copies, and the node counters count the ownership and contents that
//     died with it.
func (c *Cluster) CrashNode(idx int) {
	if c.crashed[idx] {
		return
	}
	if c.P.System != SysASVM {
		panic("machine: crash-stop model is wired for ASVM only")
	}
	if c.crashed == nil {
		c.crashed = make(map[int]bool)
	}
	c.crashed[idx] = true
	c.CrashStats.Crashes++
	n := mesh.NodeID(idx)

	c.CrashStats.FaultsAborted += c.Kerns[idx].Crash()
	var inflight []xport.PendingSend
	if c.RelTR != nil {
		inflight = c.RelTR.InFlight()
		c.RelTR.NodeCrashed(n)
		for j := 0; j < c.P.Nodes; j++ {
			if j != idx && !c.crashed[j] {
				c.RelTR.MarkPeerDown(mesh.NodeID(j), n)
			}
		}
	}
	for _, r := range c.regions {
		if r.info == nil || r.info.Down[n] || r.objs[idx] == nil {
			continue
		}
		asvm.CrashRecover(c.proto, r.info, n)
		// Authority the dead node had in flight (undelivered ownership
		// grants) is lost with certainty; declare it now, after the scrub.
		asvm.DeadLetters(c.proto, r.info, n, inflight)
	}
}

// RestartNode rejoins a crashed node cold: a fresh kernel incarnation, a
// reopened transport, and a cold protocol instance per region in its old
// ring position (static hashing is undisturbed), joined through the same
// asvm.Join as at setup. A restarted home gets its backing store back — one
// pager or a striped file's stripes — and rebuilds its grant ledger from
// the surviving owners and the ownership in flight between them; its
// backing-store knowledge lives at the pagers and needs no rebuild.
func (c *Cluster) RestartNode(idx int) {
	if !c.crashed[idx] {
		return
	}
	delete(c.crashed, idx)
	c.CrashStats.Restarts++
	n := mesh.NodeID(idx)

	c.Kerns[idx].Restart()
	if c.RelTR != nil {
		c.RelTR.PeerRestarted(n)
	}
	for _, r := range c.regions {
		if r.info == nil || r.objs[idx] == nil {
			continue
		}
		delete(r.info.Down, n)
		r.objs[idx] = asvm.Join(r.info, c.ASVMs[idx], r.io).Obj()
		if r.Home == idx {
			var inflight []xport.PendingSend
			if c.RelTR != nil {
				inflight = c.RelTR.InFlight()
			}
			asvm.RebuildHome(c.proto, r.info, inflight)
		}
	}
}

// wireDownHandlers registers each node's peer-down handler with the
// reliability layer: when retransmit exhaustion declares a peer dead (the
// organic detection path, as opposed to CrashNode's immediate one), the
// observing node's protocol layer scrubs the peer before the bounced
// frames arrive.
func (c *Cluster) wireDownHandlers() {
	for i, nd := range c.ASVMs {
		nd := nd
		c.RelTR.OnPeerDown(mesh.NodeID(i), func(e xport.ErrPeerDown) {
			nd.PeerDown(e.Node)
		})
	}
}
