package asvm

import (
	"asvm/internal/sim"
	"fmt"

	"asvm/internal/mesh"
	"asvm/internal/vm"
)

// This file implements internode paging (paper §3.6): the physical memory
// of all mapping nodes is a cache for the memory object. Eviction of an
// owned page prefers (1) ownership transfer to a surviving reader — no
// contents on the wire, (2) a page transfer to a node with free memory —
// selected by a cycling counter that locks onto accepting nodes, and only
// then (3) pageout to the memory object's pager.

// evictEvent carries the kernel's pageout notification into the state
// machine dispatch.
type evictEvent struct {
	data []byte
}

// DataReturn implements vm.MemoryManager: the local kernel is evicting (or
// cleaning) a page.
func (in *Instance) DataReturn(o *vm.Object, idx vm.PageIdx, data []byte, dirty, kept bool) {
	if in.transferring {
		return // contents just left with an ownership grant
	}
	if kept {
		// Clean-in-place downgrade: the owner keeps content responsibility
		// (an owner evicts as dirty whatever the kernel's bit says).
		return
	}
	in.dispatch(EvEvict, idx, &evictEvent{data: data})
}

// actEvictDiscard drops a non-owned copy (step 1). The owner's reader list
// self-corrects on its next probe. A faulting page keeps its fault
// bookkeeping — only a read-shared copy settles back to Invalid.
// (evictDiscard)
func actEvictDiscard(in *Instance, idx vm.PageIdx, m interface{}) {
	in.nd.Ctr.V[sim.CtrEvictDiscard]++
	in.nd.K.RemovePage(in.o, idx)
	if in.State(idx) == StReadShared {
		in.setState(idx, StInvalid)
	}
}

// actEvictCancel skips this pageout round for a page that is
// mid-protocol. (evictCancel)
func actEvictCancel(in *Instance, idx vm.PageIdx, m interface{}) {
	in.nd.K.CancelEviction(in.o, idx)
}

// actEvictOwner starts the owner eviction chain — unless the page is
// range-held, in which case the pageout daemon skips it. (evictOwner)
func actEvictOwner(in *Instance, idx vm.PageIdx, m interface{}) {
	ev := m.(*evictEvent)
	sl := in.slot(idx)
	if sl.held || in.pendPush[idx] != nil {
		in.nd.K.CancelEviction(in.o, idx)
		return
	}
	in.setState(idx, StXferOut)
	in.nd.Ctr.V[sim.CtrEvictOwner]++
	// The kernel's dirty bit is ignored: a downgrade that served a read
	// cleaned the page in place, yet the pager may never have seen it, so
	// an owned page always leaves as dirty.
	if in.info.Cfg.DisableInternodePaging {
		in.evictToPager(idx, copyData(ev.data))
		return
	}
	in.evictTryReaders(idx, copyData(ev.data))
}

// evictTryReaders is step 2: ask readers one after another; the first that
// still holds the page takes ownership (no page contents needed). The
// reader probed is always the smallest NodeID still on the list — a
// property the reader set now gives structurally, where the old map scan
// had to re-derive it to stay deterministic.
func (in *Instance) evictTryReaders(idx vm.PageIdx, data []byte) {
	sl := in.slot(idx)
	reader, ok := sl.readers.Min(&in.arena)
	if !ok {
		in.evictTryTransfer(idx, data)
		return
	}
	others := sl.readers.AppendTo(&in.arena, make([]mesh.NodeID, 0, sl.readers.Len()))[1:]
	seq := in.wait(pendWait{kind: waitXfer, to: reader, cb: func(accepted bool) {
		if accepted {
			in.nd.Ctr.V[sim.CtrEvictOwnerXfer]++
			in.evictFinish(idx, reader)
			return
		}
		sl.readers.Remove(&in.arena, reader)
		in.evictTryReaders(idx, data)
	}})
	in.send(reader, &ownerXfer{
		Obj: in.info.ID, Idx: idx, Readers: others,
		Version: sl.version, Seq: seq, From: in.self(),
	})
}

// evictTryTransfer is step 3: offer the page to another mapping node with
// free memory, cycling through the mapping and locking onto the last
// accepter.
func (in *Instance) evictTryTransfer(idx vm.PageIdx, data []byte) {
	target := in.nextPageoutTarget()
	if target == -1 {
		in.evictToPager(idx, data)
		return
	}
	in.offerPage(idx, data, target, func(accepted bool) {
		if accepted {
			in.lastAccepted = target
			in.nd.Ctr.V[sim.CtrEvictPageXfer]++
			in.evictFinish(idx, target)
			return
		}
		// Ask the node that most recently accepted a transfer.
		last := in.lastAccepted
		if last != -1 && last != target && last != in.self() {
			in.offerPage(idx, data, last, func(accepted bool) {
				if accepted {
					in.nd.Ctr.V[sim.CtrEvictPageXfer]++
					in.evictFinish(idx, last)
					return
				}
				in.lastAccepted = -1
				in.evictToPager(idx, data)
			})
			return
		}
		in.evictToPager(idx, data)
	})
}

// nextPageoutTarget returns the next candidate from the cycling counter,
// or -1 when this node is the only mapper.
func (in *Instance) nextPageoutTarget() mesh.NodeID {
	m := in.info.Mapping
	if len(m) <= 1 {
		return -1
	}
	for tries := 0; tries < len(m); tries++ {
		t := m[in.pageoutCounter%len(m)]
		in.pageoutCounter++
		if t != in.self() {
			return t
		}
	}
	return -1
}

func (in *Instance) offerPage(idx vm.PageIdx, data []byte, to mesh.NodeID, cb func(bool)) {
	seq := in.wait(pendWait{kind: waitXfer, to: to, cb: cb})
	in.send(to, &pageOffer{
		Obj: in.info.ID, Idx: idx, Data: copyData(data),
		Version: in.slots.get(idx).version, Seq: seq, From: in.self(),
	})
}

// evictToPager is step 4: return the page to the memory object's pager via
// the home instance.
func (in *Instance) evictToPager(idx vm.PageIdx, data []byte) {
	in.nd.Ctr.V[sim.CtrEvictToPager]++
	if in.info.Home == in.self() {
		in.homePagerOut(data, in.homeOp(accessReq{Idx: idx}))
		return
	}
	seq := in.wait(pendWait{kind: waitPgr, to: in.info.Home, dirty: true, cb: func(bool) {
		in.evictFinish(idx, -1)
	}})
	in.send(in.info.Home, &toPager{
		Obj: in.info.ID, Idx: idx, Data: copyData(data),
		Dirty: true, Seq: seq, From: in.self(),
	})
}

// announcePaged plants the "paged" hint at the static manager.
func (in *Instance) announcePaged(idx vm.PageIdx) {
	if !in.info.Cfg.StaticForwarding {
		return
	}
	sm := in.info.staticNode(idx)
	upd := ownerUpdate{Obj: in.info.ID, Idx: idx, Paged: true}
	if sm == in.self() {
		in.handleOwnerUpdate(upd)
		return
	}
	in.sendOwnerUpdate(sm, upd)
}

// evictFinish drops local state and releases the frame; queued requests
// chase the new owner (or the pager).
func (in *Instance) evictFinish(idx vm.PageIdx, newOwner mesh.NodeID) {
	in.leaveOwner(idx)
	in.nd.K.RemovePage(in.o, idx)
	if newOwner >= 0 {
		in.dyn.Put(idx, newOwner)
	} else {
		in.dyn.Delete(idx)
	}
	in.quiesce(idx)
	in.drainQueue(idx)
}

// ---------------------------------------------------------------------------
// Receiving side

// actOwnerXfer is eviction step 2 at a reader: take ownership over if the
// copy is still held (no contents needed). (xferTake)
func actOwnerXfer(in *Instance, idx vm.PageIdx, m interface{}) {
	x := *m.(*ownerXfer)
	pg := in.o.Pages[idx]
	accept := pg != nil && !pg.Evicting
	if accept {
		readers := x.Readers
		if in.nd.Hooks.DropXferReaders {
			readers = nil
		}
		in.installOwner(idx, readers, x.Version)
		pg.Dirty = true // contents now live here alone
		in.announceOwner(idx)
		in.nd.Ctr.V[sim.CtrOwnerXferAccepted]++
	}
	in.send(x.From, &ownerXferAck{Obj: in.info.ID, Idx: idx, Seq: x.Seq, Accepted: accept})
}

// actOwnerXferDecline declines an ownership offer: a faulting node must
// not adopt the page mid-fault, and an owner (or busy owner) already has
// it. (xferDecline)
func actOwnerXferDecline(in *Instance, idx vm.PageIdx, m interface{}) {
	x := *m.(*ownerXfer)
	in.send(x.From, &ownerXferAck{Obj: in.info.ID, Idx: idx, Seq: x.Seq, Accepted: false})
}

// actOwnerXferAck resumes the evicting owner's transfer chain. A stray ack
// is a protocol bug — except after a crash, where the failure machinery
// may have declined the transfer for a dead peer whose ack was still in
// flight. (xferAck)
func actOwnerXferAck(in *Instance, idx vm.PageIdx, m interface{}) {
	a := *m.(*ownerXferAck)
	if in.completeWait(a.Seq, waitXfer, a.Accepted) {
		return
	}
	if !in.nd.crashEra {
		panic(fmt.Sprintf("asvm: stray owner transfer ack seq %d", a.Seq))
	}
	in.nd.Ctr.V[sim.CtrLateAcks]++
}

// actPageOffer is eviction step 3 at a candidate: adopt the page if free
// memory allows. (offerTake)
func actPageOffer(in *Instance, idx vm.PageIdx, m interface{}) {
	po := *m.(*pageOffer)
	accept := in.nd.K.Mem.FreePages() > pageOfferReserve &&
		in.o.Pages[idx] == nil
	if accept {
		pg := in.nd.K.InstallPage(in.o, idx, po.Data, vm.ProtRead)
		pg.Dirty = true
		in.installOwner(idx, nil, po.Version)
		in.announceOwner(idx)
		in.nd.Ctr.V[sim.CtrPageOfferAccepted]++
	} else {
		in.nd.Ctr.V[sim.CtrPageOfferDeclined]++
	}
	in.send(po.From, &pageOfferAck{Obj: in.info.ID, Idx: idx, Seq: po.Seq, Accepted: accept})
}

// actPageOfferDecline declines a page transfer at any node already
// involved with the page. (offerDecline)
func actPageOfferDecline(in *Instance, idx vm.PageIdx, m interface{}) {
	po := *m.(*pageOffer)
	in.nd.Ctr.V[sim.CtrPageOfferDeclined]++
	in.send(po.From, &pageOfferAck{Obj: in.info.ID, Idx: idx, Seq: po.Seq, Accepted: false})
}

// actPageOfferAck resumes the evicting owner's offer chain; stray acks are
// tolerated only in the crash era, as with actOwnerXferAck. (offerAck)
func actPageOfferAck(in *Instance, idx vm.PageIdx, m interface{}) {
	a := *m.(*pageOfferAck)
	if in.completeWait(a.Seq, waitXfer, a.Accepted) {
		return
	}
	if !in.nd.crashEra {
		panic(fmt.Sprintf("asvm: stray page offer ack seq %d", a.Seq))
	}
	in.nd.Ctr.V[sim.CtrLateAcks]++
}

// actToPager parks an evicted page's contents at the home's backing store
// (eviction step 4 at the home node). A Lost report carries no contents:
// a surviving node is telling the home that the page's ownership died with
// a crashed node, so the home forgets the grant and lets the next fault
// re-resolve from the backing store. (pagerPark)
func actToPager(in *Instance, idx vm.PageIdx, m interface{}) {
	tp := *m.(*toPager)
	if tp.Lost {
		in.slot(idx).home &^= homeGranted
		in.send(tp.From, &toPagerAck{Obj: in.info.ID, Idx: idx, Seq: tp.Seq})
		return
	}
	h := in.homeOp(accessReq{Idx: idx})
	h.park, h.from, h.seq = true, tp.From, tp.Seq
	in.homePagerOut(tp.Data, h)
}

// actToPagerAck completes the evicting owner's pageout; stray acks are
// tolerated only in the crash era. (pagerAck)
func actToPagerAck(in *Instance, idx vm.PageIdx, m interface{}) {
	a := *m.(*toPagerAck)
	if in.completeWait(a.Seq, waitPgr, true) {
		return
	}
	if !in.nd.crashEra {
		panic(fmt.Sprintf("asvm: stray pager ack seq %d", a.Seq))
	}
	in.nd.Ctr.V[sim.CtrLateAcks]++
}

// actToPagerAckLoose absorbs a pager ack landing outside the eviction
// chain. Without crashes that is a protocol bug (only an XferOut slot has a
// pageout in flight); in the crash era it is the normal tail of a Lost
// report — declareLost posts to the home from whatever state the bounced
// grant left the slot in (usually Invalid, possibly re-faulting already),
// and the ack is matched by sequence number, not by page state.
// (pagerAckLoose)
func actToPagerAckLoose(in *Instance, idx vm.PageIdx, m interface{}) {
	a := *m.(*toPagerAck)
	if !in.nd.crashEra {
		panic(fmt.Sprintf("asvm: pager ack seq %d for %v p%d in %v at node %d",
			a.Seq, in.info.ID, idx, in.State(idx), in.self()))
	}
	if !in.completeWait(a.Seq, waitPgr, true) {
		in.nd.Ctr.V[sim.CtrLateAcks]++
	}
}
