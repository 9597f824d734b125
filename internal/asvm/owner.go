package asvm

import (
	"asvm/internal/sim"
	"fmt"

	"asvm/internal/vm"
)

// actAccessReq routes one request through the page state machine: at a
// non-owner it re-enters the redirector, at an owner at rest it is served,
// and at a busy owner it queues. (fwdReq/serveReq/queueReq)
func actAccessReq(in *Instance, idx vm.PageIdx, m interface{}) {
	in.handleAsOwner(*m.(*accessReq))
}

// handleAsOwner runs the page state machine (Figure 7) at the page owner.
// Operations on one page are serialized: a busy page queues requests.
func (in *Instance) handleAsOwner(req accessReq) {
	if !in.State(req.Idx).Owner() {
		// Ownership left between queueing and processing (or never arrived
		// here): chase it.
		in.forward(req)
		return
	}
	sl := in.slot(req.Idx)
	if sl.state.Busy() || (sl.held && req.Origin != in.self()) {
		ss := in.sideOf(req.Idx)
		ss.queue = append(ss.queue, req)
		return
	}
	in.process(req)
}

// process executes one request at the owner. It must be entered with the
// page at rest; the page is Serving (or a deeper busy state) until the
// serve path reaches opDone.
func (in *Instance) process(req accessReq) {
	idx := req.Idx
	in.setState(idx, StServing)
	switch req.ReqKind {
	case kindPushScan:
		// We own this page of the copy domain: the push is unnecessary.
		in.send(req.Origin, &pushScanAck{SrcObj: req.Target, Idx: idx, Found: true})
		in.opDone(idx)
	case kindPull:
		in.servePull(req)
	case kindAccess:
		if req.Want == vm.ProtRead {
			in.serveRead(req)
		} else {
			in.serveWrite(req)
		}
	default:
		panic(fmt.Sprintf("asvm: unknown request kind %d", req.ReqKind))
	}
}

// opDone ends one owner operation: quiesce the busy window, then continue
// with queued work. Every serve path terminates here (possibly from an
// async continuation).
func (in *Instance) opDone(idx vm.PageIdx) {
	in.quiesce(idx)
	in.drainQueue(idx)
}

// drainQueue continues with queued work after an operation completes. If
// ownership moved away, everything queued chases the new owner.
func (in *Instance) drainQueue(idx vm.PageIdx) {
	sl := in.slot(idx)
	if !sl.side || len(in.side[idx].queue) == 0 {
		return // the common path: no side entry, no map probe
	}
	ss := in.side[idx]
	if !sl.state.Owner() {
		q := ss.queue
		ss.queue = nil
		for _, r := range q {
			in.forward(r)
		}
		return
	}
	next := ss.queue[0]
	if sl.held && next.Origin != in.self() {
		return // range-locked: foreign requests wait for ReleaseRange
	}
	ss.queue = ss.queue[1:]
	in.process(next)
}

// serveRead is transition 5: grant read access, remember the reader.
func (in *Instance) serveRead(req accessReq) {
	pg := in.o.Pages[req.Idx]
	if pg == nil {
		// Shouldn't happen (owners keep the page resident) but recover by
		// chasing forwarding.
		in.leaveOwner(req.Idx)
		in.forward(req)
		in.opDone(req.Idx)
		return
	}
	if req.Origin == in.self() && in.nd.crashEra {
		// A crash-era re-driven fault chased back to ourselves after the
		// original resolution made us owner: the kernel already holds the
		// page, and a node must never appear on its own reader list.
		in.nd.K.LockGrant(in.o, req.Idx, vm.ProtRead)
		in.opDone(req.Idx)
		return
	}
	in.nd.Ctr.V[sim.CtrReadGrants]++
	in.slot(req.Idx).readers.Add(&in.arena, req.Origin)
	in.sendGrant(req.Origin, grantMsg{
		Obj: req.Target, Idx: req.Idx, Lock: vm.ProtRead,
		Data: copyData(pg.Data), HasData: true, From: in.self(),
	})
	// Single writer or multiple readers: handing out a read copy
	// downgrades our own access too; our next write re-enters the state
	// machine as transition 7 and invalidates the readers.
	if pg.Lock > vm.ProtRead {
		in.nd.K.LockRequest(in.o, req.Idx, vm.ProtRead, false, nil)
	}
	in.opDone(req.Idx)
}

// serveWrite is transitions 2/3/4/6/7: push if a delayed copy needs the
// old contents, invalidate all readers, then grant write (with ownership
// when the requester is remote).
func (in *Instance) serveWrite(req accessReq) {
	in.pushIfNeeded(req.Idx, in.nd.writeOps.Get(writeOp{in: in, req: req}))
}

// writeOp is one write grant in progress at the owner. It carries the
// request from the push to the invalidation round and on to the grant as
// their sim.Runnable continuation, from a per-node free list, so a write
// grant allocates no closure.
type writeOp struct {
	in      *Instance
	req     accessReq
	pushed  bool // the push is done; the invalidation round is under way
	upgrade bool // the requester holds a read copy: grant without contents
}

// Run implements sim.Runnable: the next step of the write grant.
func (w *writeOp) Run() {
	in, idx := w.in, w.req.Idx
	if !w.pushed {
		w.pushed = true
		w.upgrade = in.slot(idx).readers.Contains(&in.arena, w.req.Origin)
		in.invalidateReaders(idx, w.req.Origin, w)
		return
	}
	req, upgrade := w.req, w.upgrade
	in.nd.writeOps.Put(w)
	in.grantWrite(req, upgrade)
}

// grantWrite ends a write grant once the readers are gone.
func (in *Instance) grantWrite(req accessReq, upgrade bool) {
	idx := req.Idx
	if req.Origin == in.self() {
		// Transition 7: our own upgrade; we stay owner.
		in.nd.Ctr.V[sim.CtrSelfUpgrades]++
		in.nd.K.LockGrant(in.o, idx, vm.ProtWrite)
		if pg := in.o.Pages[idx]; pg != nil {
			pg.Dirty = true
		}
		in.opDone(idx)
		return
	}
	// Transitions 4/6: grant write and transfer ownership.
	pg := in.o.Pages[idx]
	g := grantMsg{
		Obj: req.Target, Idx: idx, Lock: vm.ProtWrite,
		Ownership: true, Version: in.slot(idx).version, From: in.self(),
	}
	if !upgrade {
		if pg == nil {
			// Our copy vanished mid-protocol (cancelled eviction lost the
			// race): fall back to retrying the request.
			g.Retry = true
		} else {
			g.Data = copyData(pg.Data)
			g.HasData = true
		}
	}
	in.nd.Ctr.V[sim.CtrWriteGrants]++
	if in.nd.Trace.on {
		in.trace("t xfer: node %d grants ownership of %v p%d to %d (upgrade=%v)", in.self(), in.info.ID, idx, req.Origin, upgrade)
	}
	in.sendGrant(req.Origin, g)
	if g.Retry {
		in.opDone(idx)
		return
	}
	// Drop our copy; the contents just left with the grant.
	in.transferring = true
	in.nd.K.LockRequest(in.o, idx, vm.ProtNone, false, nil)
	in.transferring = false
	in.leaveOwner(idx)
	in.dyn.Put(idx, req.Origin)
	in.opDone(idx)
}

// servePull answers a request that originated in a copy object and was
// forwarded into this (source) domain. If the page has already been pushed
// for the newest copy, its current contents may postdate the copy — the
// requester must retry in the copy domain, where the pushed page now has
// an owner (the paper's push/pull synchronization).
func (in *Instance) servePull(req accessReq) {
	sl := in.slot(req.Idx)
	if in.info.Copy != nil && sl.version == in.info.Version {
		in.nd.Ctr.V[sim.CtrPullRetries]++
		in.sendGrant(req.Origin, grantMsg{Obj: req.Target, Idx: req.Idx, Retry: true, From: in.self()})
		in.opDone(req.Idx)
		return
	}
	pg := in.o.Pages[req.Idx]
	if pg == nil {
		in.leaveOwner(req.Idx)
		in.forward(req)
		in.opDone(req.Idx)
		return
	}
	// The contents are still those the copy snapshotted (no push has
	// happened, so no write has happened since the copy was made): supply
	// them into the copy object at the origin, which becomes their owner
	// there. Version 0 keeps the copy's own future pushes armed.
	in.nd.Ctr.V[sim.CtrPullGrants]++
	in.sendGrant(req.Origin, grantMsg{
		Obj: req.Target, Idx: req.Idx, Lock: req.Want,
		Data: copyData(pg.Data), HasData: true,
		Ownership: true, Version: 0, From: in.self(),
	})
	in.opDone(req.Idx)
}
