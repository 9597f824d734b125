package asvm

import (
	"cmp"
	"fmt"
	"slices"

	"asvm/internal/mesh"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// This file is the protocol's crash-stop failure model. A crashed node's
// volatile state simply ceases (EvCrash); survivors scrub every reference
// to it (EvPeerDown), re-drive faults that may have died with it, and
// declare ownership it held lost — counted and traced, never silent. The
// no-crash protocol is untouched: everything here runs only when the
// machine layer executes a crash plan or the reliability layer declares a
// peer dead, and Node.crashEra stays false (strict panics intact) until
// either happens.

// actCrash drops one page's protocol state, side entry included, as its
// node dies: under crash-stop, volatile state simply ceases. (crash)
func actCrash(in *Instance, idx vm.PageIdx, m interface{}) {
	delete(in.side, idx)
	*in.slot(idx) = pageSlot{}
}

// actPeerDown reacts, at a survivor, to a peer being declared dead. A
// faulting page re-drives its request from scratch — the original may have
// died with the peer (queued there, or its grant lost); a duplicate
// resolution is benign (grantBusy/grantLate absorb it). An owner scrubs
// the dead node from its reader list: the copy died with it. (peerDead)
func actPeerDown(in *Instance, idx vm.PageIdx, m interface{}) {
	dead := m.(mesh.NodeID)
	sl := in.slot(idx)
	if sl.state.FaultOut() {
		if in.nd.Hooks.DropFaultRedrive {
			return
		}
		in.nd.Ctr.V[sim.CtrFaultRedrives]++
		if in.nd.Trace.on {
			in.trace("t redrive: node %d re-drives %v fault on %v p%d past dead %d",
				in.self(), sl.want, in.info.ID, idx, dead)
		}
		in.dyn.Delete(idx)
		in.forward(accessReq{
			Obj: in.info.ID, Target: in.info.ID, Idx: idx,
			Want: sl.want, ReqKind: kindAccess,
			Origin: in.self(), LastFrom: dead,
		})
		return
	}
	if sl.state.Owner() && sl.readers.Contains(&in.arena, dead) {
		sl.readers.Remove(&in.arena, dead)
		in.nd.Ctr.V[sim.CtrCopiesDropped]++
		if sl.state.AtRest() {
			in.setState(idx, restOwnerState(sl.readers.Len()))
		}
	}
}

// actGrantBusy absorbs a grant landing on a busy owner. Without crashes
// this is a protocol bug (the operation in flight would be corrupted); in
// the crash era it is the benign tail of a re-driven fault that resolved
// twice — the first grant made us owner and we are already serving, so the
// duplicate is dead on arrival. Ownership cannot arrive here twice: a
// second request copy finds us owner and is served locally, not granted.
// (grantBusy)
func actGrantBusy(in *Instance, idx vm.PageIdx, m interface{}) {
	if !in.nd.crashEra {
		g := m.(*grantMsg)
		panic(fmt.Sprintf("asvm: grant for %v p%d landed on busy owner %d in %v",
			g.Obj, idx, in.self(), in.State(idx)))
	}
	in.nd.Ctr.V[sim.CtrLateGrants]++
}

// failFault aborts this node's outstanding fault with a typed error: the
// kernel's waiters resume with err, the slot returns to Invalid.
func (in *Instance) failFault(idx vm.PageIdx, err error) {
	sl := in.slot(idx)
	if !sl.state.FaultOut() {
		return
	}
	in.nd.Ctr.V[sim.CtrFaultsAborted]++
	if in.nd.Trace.on {
		in.trace("t abort: node %d fails fault on %v p%d: %v", in.self(), in.info.ID, idx, err)
	}
	in.endFault(idx)
	in.setState(idx, StInvalid)
	in.nd.K.FailPending(in.o, idx, err)
}

// nackGrant handles one of our grants bouncing off a dead node. Copies are
// scrubbed from the reader list; bounced ownership — which never landed —
// is reclaimed where possible (back into the home's bookkeeping, or
// reinstalled locally when the contents travelled with the grant) and
// declared lost otherwise.
func (n *Node) nackGrant(dead mesh.NodeID, g grantMsg) {
	if g.Retry || g.Unavailable {
		return // pure control answers carry no authority
	}
	in := n.instances[g.Obj]
	if in == nil {
		// A pull grant into a copy domain we do not map: nothing local to
		// repair. The copy domain's own failure handling (home reset,
		// fault re-drive) recovers it.
		if g.Ownership {
			n.Ctr.V[sim.CtrOwnershipLost]++
		}
		return
	}
	sl := in.slot(g.Idx)
	if !g.Ownership {
		if sl.state.Owner() && sl.readers.Contains(&in.arena, dead) {
			sl.readers.Remove(&in.arena, dead)
			if sl.state.AtRest() {
				in.setState(g.Idx, restOwnerState(sl.readers.Len()))
			}
		}
		return
	}
	if in.info.Home == in.self() && (g.AtPagerCopy || g.Fresh) {
		// A home-issued grant from the backing store (or zero fill): the
		// authority returns to the home's own bookkeeping; the contents,
		// if any, are still at the pager.
		sl.home &^= homeGranted
		if g.AtPagerCopy {
			sl.home |= homeAtPager
		}
		if h, ok := in.dyn.Get(g.Idx); ok && h == dead {
			in.dyn.Delete(g.Idx)
		}
		n.Ctr.V[sim.CtrOwnershipReclaimed]++
		return
	}
	if sl.state == StInvalid && in.o.Pages[g.Idx] == nil && g.HasData {
		// We shipped the contents with the grant and kept nothing: take
		// the page back and own it here again.
		pg := n.K.InstallPage(in.o, g.Idx, g.Data, vm.ProtRead)
		if !g.AtPagerCopy {
			pg.Dirty = true
		}
		in.installOwner(g.Idx, nil, g.Version)
		in.announceOwner(g.Idx)
		n.Ctr.V[sim.CtrOwnershipReclaimed]++
		in.drainQueue(g.Idx)
		return
	}
	// Upgrade grants carry no contents (the dead node already had the
	// copy — now gone with it), and a mid-protocol slot cannot adopt the
	// page: the ownership, and possibly the last copy, died in flight.
	if g.HasData && !g.AtPagerCopy {
		n.Ctr.V[sim.CtrPagesLost]++
	}
	in.declareLost(g.Idx)
}

// declareLost records that a page's ownership died with a crashed node:
// the home forgets its grant so the next fault re-resolves from the
// backing store instead of chasing a ghost owner forever. Remote homes
// learn via a Lost-flagged toPager message; if the home itself is down,
// that message bounces harmlessly and the home's restart rebuild takes
// over.
func (in *Instance) declareLost(idx vm.PageIdx) {
	in.nd.Ctr.V[sim.CtrOwnershipLost]++
	if in.nd.Trace.on {
		in.trace("t lost: node %d declares %v p%d ownership lost", in.self(), in.info.ID, idx)
	}
	in.dyn.Delete(idx)
	if in.info.Home == in.self() {
		in.slot(idx).home &^= homeGranted
		return
	}
	seq := in.wait(pendWait{kind: waitPgr, to: in.info.Home, cb: func(bool) {}})
	in.send(in.info.Home, &toPager{Obj: in.info.ID, Idx: idx, Lost: true, Seq: seq, From: in.self()})
}

// PeerDown is the reliability layer's down-handler: the transport has
// declared dead unreachable (retransmit exhaustion). Every instance scrubs
// the dead node (scrubPeer). Idempotent: a second call for the same node
// finds nothing left to scrub.
func (n *Node) PeerDown(dead mesh.NodeID) {
	n.crashEra = true
	n.Ctr.V[sim.CtrPeerDowns]++
	for _, in := range n.instancesSorted() {
		in.scrubPeer(dead)
	}
}

// scrubPeer is a survivor's reaction to a dead peer in one domain: it
// scrubs the peer from both forwarding caches, completes protocol waits
// addressed to it, drops the requests it queued, and dispatches EvPeerDown
// for pages that must react (outstanding faults, reader-list entries). Its
// two callers are CrashRecover (a planned crash) and PeerDown (the
// reliability layer's retransmit-exhaustion verdict).
func (in *Instance) scrubPeer(dead mesh.NodeID) {
	in.nd.crashEra = true
	in.nd.Ctr.V[sim.CtrHintEvictions] += int64(in.forgetOwner(dead))
	in.completePendingFor(dead)
	in.dropQueuedFrom(dead)
	in.slots.each(func(idx vm.PageIdx, sl *pageSlot) bool {
		if sl.state.FaultOut() || (sl.state.Owner() && sl.readers.Contains(&in.arena, dead)) {
			in.dispatch(EvPeerDown, idx, dead)
		}
		return true
	})
}

// forgetOwner scrubs a dead node from both forwarding caches — "paged"
// markers stay, the pager's copy does not die with an owner — and returns
// how many dynamic hints it evicted.
func (in *Instance) forgetOwner(dead mesh.NodeID) int {
	in.static.DeleteFunc(func(e staticEntry) bool { return !e.paged && e.owner == dead })
	return in.dyn.DeleteFunc(func(n mesh.NodeID) bool { return n == dead })
}

// instancesSorted returns this node's instances in ObjID order — map
// iteration order must never reach the protocol (determinism contract).
func (n *Node) instancesSorted() []*Instance {
	out := make([]*Instance, 0, len(n.instances))
	for _, in := range n.instances {
		out = append(out, in)
	}
	slices.SortFunc(out, func(a, b *Instance) int {
		return cmp.Or(cmp.Compare(a.info.ID.Node, b.info.ID.Node), cmp.Compare(a.info.ID.Seq, b.info.ID.Seq))
	})
	return out
}

// completePendingFor completes, in deterministic seq order, every protocol
// wait addressed to a dead node: invalidation rounds count the dead reader
// as acked (it holds no copy any more), transfers and offers are declined
// for it, and pageouts to a dead home finish with their dirty contents
// counted lost. This closes the acked-but-unanswered window the transport
// flush cannot see — a message the dead node received (and acked) but
// crashed before answering leaves nothing in flight to bounce.
func (in *Instance) completePendingFor(dead mesh.NodeID) {
	var seqs []uint64
	for _, kind := range []waitKind{waitInval, waitXfer, waitPgr} {
		seqs = seqs[:0]
		for s, w := range in.pend { // a round waits on its await list, the rest on to
			if w.kind == kind && (slices.Contains(w.await, dead) || kind != waitInval && w.to == dead) {
				seqs = append(seqs, s)
			}
		}
		slices.Sort(seqs)
		for _, s := range seqs {
			if kind == waitInval {
				in.completeInvalTarget(s, dead)
				continue
			}
			if in.pend[s].dirty {
				in.nd.Ctr.V[sim.CtrPagesLost]++
			}
			in.completeWait(s, kind, false)
		}
	}
}

// CrashRecover tears a dead node out of one domain (crash-stop): the node
// counters count what the cluster lost, survivors scrub every reference to
// the dead node and re-drive faults that may have died with it, and the
// dead node's instance retires through EvCrash. The dead node keeps its
// mapping-ring position (marked Down) so static hashing is undisturbed and
// a restart can rejoin in place via AddNode.
func CrashRecover(cluster Cluster, info *DomainInfo, dead mesh.NodeID) {
	if info.Down == nil {
		info.Down = make(map[mesh.NodeID]bool)
	}
	info.Down[dead] = true

	deadNd := cluster.node(dead)
	deadIn := deadNd.instances[info.ID]
	var homeIn *Instance
	if !info.Down[info.Home] {
		homeIn = cluster.node(info.Home).instances[info.ID]
	}

	// 1. What did the cluster just lose? Ownership held by the dead node
	// is gone: the home forgets its grant (next fault re-resolves from the
	// backing store) and surviving read copies are dropped — with the
	// owner gone, the pager's contents become the page's only authority,
	// and a live copy newer than the pager's must not linger.
	if deadIn != nil {
		deadIn.slots.each(func(idx vm.PageIdx, sl *pageSlot) bool {
			if !sl.state.Owner() {
				return true
			}
			deadNd.Ctr.V[sim.CtrOwnershipLost]++
			if pg := deadIn.o.Pages[idx]; pg != nil && pg.Dirty {
				deadNd.Ctr.V[sim.CtrPagesLost]++
			}
			if homeIn != nil {
				homeIn.slot(idx).home &^= homeGranted
			}
			readers := sl.readers.AppendTo(&deadIn.arena, make([]mesh.NodeID, 0, sl.readers.Len()))
			for _, r := range readers {
				if r == dead || info.Down[r] {
					continue
				}
				rin := cluster.node(r).instances[info.ID]
				if rin == nil {
					continue
				}
				rin.nd.K.LockRequest(rin.o, idx, vm.ProtNone, false, nil)
				if rin.State(idx) == StReadShared {
					rin.setState(idx, StInvalid)
				}
				rin.dyn.Delete(idx)
				rin.nd.Ctr.V[sim.CtrCopiesDropped]++
			}
			return true
		})
	}

	// 2. Survivors scrub the dead node and re-drive what it may have
	// taken with it.
	for _, nid := range info.Mapping {
		if nid == dead || info.Down[nid] {
			continue
		}
		if in := cluster.node(nid).instances[info.ID]; in != nil {
			in.scrubPeer(dead)
		}
	}

	// 3. The dead node's instance retires: every page's state dies with
	// the node, the local vm object is destroyed (frames freed), and the
	// instance is dropped so a restart rejoins cold via AddNode.
	if deadIn != nil {
		deadIn.slots.each(func(idx vm.PageIdx, sl *pageSlot) bool {
			if sl.state != StInvalid {
				deadIn.dispatch(EvCrash, idx, nil)
			}
			return true
		})
		deadNd.K.DestroyObject(deadIn.o)
		delete(deadNd.instances, info.ID)
	}
}

// DeadLetters accounts for authority a crashed node had in flight: frames
// it sent that were never delivered (its share of inflight, the
// reliability layer's undelivered frames taken at the crash) die with its
// incarnation. An ownership grant among them is the dangerous case — the
// sender relinquished the page when it sent the grant, the grantee will
// never receive it, and no survivor's state records the loss. Without this
// the home's ledger says "granted" forever, every fault scans the ring for
// an owner that does not exist, and the home's paced retry livelocks. The
// home declares the loss exactly as if the grant had bounced (declareLost);
// dirty contents travelling with the grant count as lost on the dead node,
// and so does the ownership when the home is down too (its restart rebuild
// re-derives the ledger). Run after CrashRecover so the scrub cannot
// resurrect the hint.
func DeadLetters(cluster Cluster, info *DomainInfo, dead mesh.NodeID, inflight []xport.PendingSend) {
	deadNd := cluster.node(dead)
	for _, f := range inflight {
		g, ok := ownershipGrant(f.Msg, info.ID)
		if !ok || f.Src != dead {
			continue
		}
		if g.HasData && !g.AtPagerCopy {
			deadNd.Ctr.V[sim.CtrPagesLost]++
		}
		var hin *Instance
		if !info.Down[info.Home] {
			hin = cluster.node(info.Home).instances[info.ID]
		}
		if hin == nil {
			deadNd.Ctr.V[sim.CtrOwnershipLost]++
			continue
		}
		hin.nd.crashEra = true
		hin.declareLost(g.Idx)
	}
}

// dropQueuedFrom discards queued requests originated by a dead node: the
// faulting task died with it, and serving them would only manufacture
// grants that bounce. Each queue is filtered in place, so the side table's
// map order reaches nothing.
func (in *Instance) dropQueuedFrom(dead mesh.NodeID) {
	for _, ss := range in.side {
		kept := ss.queue[:0]
		for _, r := range ss.queue {
			if r.Origin != dead {
				kept = append(kept, r)
			}
		}
		ss.queue = kept
	}
}

// RebuildHome reconstructs a restarted home's bookkeeping: a page is
// granted iff some live node owns it, or an ownership grant to a live node
// is in flight (among inflight, the reliability layer's undelivered
// frames). Without the second rule a grant that lands after the restart
// leaves an owner the home does not know of, and the home may fresh-grant
// the page a second time. An ownerXfer or pageOffer in flight needs no
// rule: its sender stays in StXferOut, an owner state, until the answer
// comes back. Backing-store knowledge survives the crash at the pager
// itself for pager-backed domains; an anonymous domain's in-memory parking
// store is volatile and lost with the home — those pages re-resolve as
// fresh, the crash-stop degradation the node counters count.
func RebuildHome(cluster Cluster, info *DomainInfo, inflight []xport.PendingSend) {
	hin := cluster.node(info.Home).instances[info.ID]
	if hin == nil {
		return
	}
	for _, nid := range info.Mapping {
		if nid == info.Home || info.Down[nid] {
			continue
		}
		in := cluster.node(nid).instances[info.ID]
		if in == nil {
			continue
		}
		in.slots.each(func(idx vm.PageIdx, sl *pageSlot) bool {
			if sl.state.Owner() {
				hin.slot(idx).home = homeGranted
			}
			return true
		})
	}
	for _, f := range inflight {
		if g, ok := ownershipGrant(f.Msg, info.ID); ok && !info.Down[f.Dst] {
			hin.slot(g.Idx).home = homeGranted
		}
	}
}

// ownershipGrant returns m as a grant of ownership of a page of domain obj,
// if it is one.
func ownershipGrant(m interface{}, obj vm.ObjID) (*grantMsg, bool) {
	g, ok := m.(*grantMsg)
	return g, ok && g.Obj == obj && g.Ownership && !g.Retry && !g.Unavailable
}
