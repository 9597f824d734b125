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

// CrashLedger counts the degradation one crash inflicted on a domain.
type CrashLedger struct {
	// OwnershipLost counts pages whose ownership died with the node.
	OwnershipLost int
	// PagesLost counts dirty pages whose only copy died with the node —
	// future faults see the pager's stale (but internally consistent)
	// contents, or zero fill.
	PagesLost int
	// CopiesDropped counts surviving read copies invalidated because
	// their owner died (single-source rule: with the owner gone, the
	// pager's copy becomes the page's only authority).
	CopiesDropped int
	// FaultsAborted counts the dead node's own in-flight faults failed
	// with vm.ErrNodeCrashed.
	FaultsAborted int
}

// Add accumulates another ledger into l.
func (l *CrashLedger) Add(o CrashLedger) {
	l.OwnershipLost += o.OwnershipLost
	l.PagesLost += o.PagesLost
	l.CopiesDropped += o.CopiesDropped
	l.FaultsAborted += o.FaultsAborted
}

// actCrash drops one page's protocol state as its node dies: identical to
// teardown — under crash-stop, volatile state simply ceases. (crash)
func actCrash(in *Instance, idx vm.PageIdx, m interface{}) {
	in.slots[idx] = pageSlot{}
}

// actPeerDown reacts, at a survivor, to a peer being declared dead. A
// faulting page re-drives its request from scratch — the original may have
// died with the peer (queued there, or its grant lost); a duplicate
// resolution is benign (grantBusy/grantLate absorb it). An owner scrubs
// the dead node from its reader list: the copy died with it. (peerDead)
func actPeerDown(in *Instance, idx vm.PageIdx, m interface{}) {
	dead := m.(mesh.NodeID)
	sl := &in.slots[idx]
	if sl.state.FaultOut() {
		if in.nd.Hooks.DropFaultRedrive {
			return
		}
		in.nd.Ctr.V[sim.CtrFaultRedrives]++
		in.trace("t redrive: node %d re-drives %v fault on %v p%d past dead %d",
			in.self(), sl.want, in.info.ID, idx, dead)
		in.dyn.Delete(idx)
		in.forward(accessReq{
			Obj: in.info.ID, Target: in.info.ID, Idx: idx,
			Want: sl.want, ReqKind: kindAccess,
			Origin: in.self(), LastFrom: dead,
		})
		return
	}
	if sl.state.Owner() && sl.readers.Contains(dead) {
		sl.readers.Remove(dead)
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
			g.Obj, idx, in.self(), in.slots[idx].state))
	}
	in.nd.Ctr.V[sim.CtrLateGrants]++
}

// failFault aborts this node's outstanding fault with a typed error: the
// kernel's waiters resume with err, the slot returns to Invalid.
func (in *Instance) failFault(idx vm.PageIdx, err error) {
	sl := &in.slots[idx]
	if !sl.state.FaultOut() {
		return
	}
	in.nd.Ctr.V[sim.CtrFaultsAborted]++
	in.trace("t abort: node %d fails fault on %v p%d: %v", in.self(), in.info.ID, idx, err)
	sl.want, sl.retries, sl.staleFrom = 0, 0, nil
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
	sl := &in.slots[g.Idx]
	if !g.Ownership {
		if sl.state.Owner() && sl.readers.Contains(dead) {
			sl.readers.Remove(dead)
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
		if hs := in.home[g.Idx]; hs != nil {
			hs.granted = false
			if g.AtPagerCopy {
				hs.atPager = true
			}
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
	in.trace("t lost: node %d declares %v p%d ownership lost", in.self(), in.info.ID, idx)
	in.dyn.Delete(idx)
	if in.info.Home == in.self() {
		hs := in.home[idx]
		if hs == nil {
			hs = &homeState{}
			in.home[idx] = hs
		}
		hs.granted = false
		return
	}
	in.seq++
	seq := in.seq
	in.pendPgr[seq] = pgrWait{to: in.info.Home, cb: func() {}}
	in.send(in.info.Home, toPager{Obj: in.info.ID, Idx: idx, Lost: true, Seq: seq, From: in.self()})
}

// PeerDown is the reliability layer's down-handler: the transport has
// declared dead unreachable (retransmit exhaustion), or the machine layer
// is executing a planned crash. Every instance scrubs its forwarding
// caches, completes protocol waits addressed to the dead node, and
// dispatches EvPeerDown for pages that must react (outstanding faults,
// reader-list entries). Idempotent: a second call for the same node finds
// nothing left to scrub.
func (n *Node) PeerDown(dead mesh.NodeID) {
	n.crashEra = true
	n.Ctr.V[sim.CtrPeerDowns]++
	for _, in := range n.instancesSorted() {
		n.Ctr.V[sim.CtrHintEvictions] += int64(in.dyn.DeleteOwner(dead))
		in.static.DeleteOwner(dead)
		in.completePendingFor(dead)
		for i := range in.slots {
			sl := &in.slots[i]
			if sl.state.FaultOut() || (sl.state.Owner() && sl.readers.Contains(dead)) {
				in.dispatch(EvPeerDown, vm.PageIdx(i), dead)
			}
		}
	}
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
	for s, b := range in.pendInval {
		for _, t := range b.await {
			if t == dead {
				seqs = append(seqs, s)
				break
			}
		}
	}
	slices.Sort(seqs)
	for _, s := range seqs {
		in.completeInvalTarget(s, dead)
	}

	seqs = seqs[:0]
	for s, w := range in.pendXfer {
		if w.to == dead {
			seqs = append(seqs, s)
		}
	}
	slices.Sort(seqs)
	for _, s := range seqs {
		in.completeXfer(s, false)
	}

	seqs = seqs[:0]
	for s, w := range in.pendPgr {
		if w.to == dead {
			seqs = append(seqs, s)
		}
	}
	slices.Sort(seqs)
	for _, s := range seqs {
		if w := in.pendPgr[s]; w.dirty {
			in.nd.Ctr.V[sim.CtrPagesLost]++
		}
		in.completePgr(s)
	}
}

// CrashRecover tears a dead node out of one domain (crash-stop): the
// ledger records what the cluster lost, survivors scrub every reference to
// the dead node and re-drive faults that may have died with it, and the
// dead node's instance retires through EvCrash. The dead node keeps its
// mapping-ring position (marked Down) so static hashing is undisturbed and
// a restart can rejoin in place via AddNode.
func CrashRecover(cluster Cluster, info *DomainInfo, dead mesh.NodeID, led *CrashLedger) {
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
		for i := range deadIn.slots {
			idx := vm.PageIdx(i)
			sl := &deadIn.slots[i]
			if !sl.state.Owner() {
				continue
			}
			led.OwnershipLost++
			deadNd.Ctr.V[sim.CtrOwnershipLost]++
			if pg := deadIn.o.Pages[idx]; pg != nil && pg.Dirty {
				led.PagesLost++
				deadNd.Ctr.V[sim.CtrPagesLost]++
			}
			if homeIn != nil {
				hs := homeIn.home[idx]
				if hs == nil {
					hs = &homeState{}
					homeIn.home[idx] = hs
				}
				hs.granted = false
			}
			readers := sl.readers.AppendTo(make([]mesh.NodeID, 0, sl.readers.Len()))
			for _, r := range readers {
				if r == dead || info.Down[r] {
					continue
				}
				rin := cluster.node(r).instances[info.ID]
				if rin == nil {
					continue
				}
				rin.nd.K.LockRequest(rin.o, idx, vm.ProtNone, false, nil)
				if rin.slots[idx].state == StReadShared {
					rin.setState(idx, StInvalid)
				}
				rin.dyn.Delete(idx)
				led.CopiesDropped++
				rin.nd.Ctr.V[sim.CtrCopiesDropped]++
			}
		}
	}

	// 2. Survivors scrub the dead node and re-drive what it may have
	// taken with it.
	for _, nid := range info.Mapping {
		if nid == dead || info.Down[nid] {
			continue
		}
		nd := cluster.node(nid)
		if in := nd.instances[info.ID]; in != nil {
			nd.crashEra = true
			n := in.dyn.DeleteOwner(dead)
			nd.Ctr.V[sim.CtrHintEvictions] += int64(n)
			in.static.DeleteOwner(dead)
			in.completePendingFor(dead)
			in.dropQueuedFrom(dead)
			for i := range in.slots {
				sl := &in.slots[i]
				if sl.state.FaultOut() || (sl.state.Owner() && sl.readers.Contains(dead)) {
					in.dispatch(EvPeerDown, vm.PageIdx(i), dead)
				}
			}
		}
	}

	// 3. The dead node's instance retires: every page's state dies with
	// the node, the local vm object is destroyed (frames freed), and the
	// instance is dropped so a restart rejoins cold via AddNode.
	if deadIn != nil {
		for i := range deadIn.slots {
			if deadIn.slots[i].state != StInvalid {
				deadIn.dispatch(EvCrash, vm.PageIdx(i), nil)
			}
		}
		deadNd.K.DestroyObject(deadIn.o)
		delete(deadNd.instances, info.ID)
	}
}

// DeadLetters accounts for authority a crashed node had in flight: frames
// it sent that were never delivered (xport.AbandonedSends) die with its
// incarnation. An ownership grant among them is the dangerous case — the
// sender relinquished the page when it sent the grant, the grantee will
// never receive it, and no survivor's state records the loss. Without this
// the home's ledger says "granted" forever, every fault scans the ring for
// an owner that does not exist, and the home's paced retry livelocks. The
// loss is declared exactly as if the grant had bounced: the home forgets
// the grant, its hint is dropped, and the ledger counts the ownership (and
// dirty contents travelling with it) as dead. Run after CrashRecover so the
// scrub cannot resurrect the hint.
func DeadLetters(cluster Cluster, info *DomainInfo, dead mesh.NodeID, msgs []xport.AbandonedSend, led *CrashLedger) {
	deadNd := cluster.node(dead)
	for _, as := range msgs {
		g, ok := as.Msg.(*grantMsg)
		if !ok || g.Obj != info.ID || !g.Ownership || g.Retry || g.Unavailable {
			continue
		}
		led.OwnershipLost++
		deadNd.Ctr.V[sim.CtrOwnershipLost]++
		if g.HasData && !g.AtPagerCopy {
			led.PagesLost++
			deadNd.Ctr.V[sim.CtrPagesLost]++
		}
		if info.Down[info.Home] {
			continue // the home's own restart rebuild re-derives the ledger
		}
		hin := cluster.node(info.Home).instances[info.ID]
		if hin == nil {
			continue
		}
		hin.nd.crashEra = true
		hin.trace("t dead-letter: node %d voids %v p%d ownership grant %d->%d",
			hin.self(), info.ID, g.Idx, dead, as.Dst)
		hs := hin.home[g.Idx]
		if hs == nil {
			hs = &homeState{}
			hin.home[g.Idx] = hs
		}
		hs.granted = false
		hin.dyn.Delete(g.Idx)
	}
}

// dropQueuedFrom discards queued requests originated by a dead node: the
// faulting task died with it, and serving them would only manufacture
// grants that bounce.
func (in *Instance) dropQueuedFrom(dead mesh.NodeID) {
	for i := range in.slots {
		sl := &in.slots[i]
		if len(sl.queue) == 0 {
			continue
		}
		kept := sl.queue[:0]
		for _, r := range sl.queue {
			if r.Origin != dead {
				kept = append(kept, r)
			}
		}
		sl.queue = kept
	}
}

// RebuildHome reconstructs a restarted home's bookkeeping from the
// cluster's surviving owners: a page is granted iff some live node owns
// it. Backing-store knowledge survives the crash at the pager itself for
// pager-backed domains; an anonymous domain's in-memory parking store is
// volatile and lost with the home — those pages re-resolve as fresh, the
// crash-stop degradation the ledger counts.
func RebuildHome(cluster Cluster, info *DomainInfo) {
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
		for i := range in.slots {
			if in.slots[i].state.Owner() {
				hin.home[vm.PageIdx(i)] = &homeState{granted: true}
			}
		}
	}
}
