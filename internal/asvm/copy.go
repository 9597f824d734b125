package asvm

import (
	"fmt"

	"asvm/internal/pager"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// This file implements ASVM's cross-node delayed copy support (paper
// §3.7): version-counted pushes with push scans, and pulls that traverse
// local shadow chains via each copy object's peer (home) node.

// pushIfNeeded runs before any write grant: if a copy of the domain was
// made since this page was last pushed, the pre-write contents must reach
// the newest copy domain first. The push itself is the EvPushStart
// transition (Serving → PushWait); an up-to-date page continues
// synchronously without leaving Serving.
func (in *Instance) pushIfNeeded(idx vm.PageIdx, cont sim.Runnable) {
	if in.info.Copy == nil || in.slots.get(idx).version == in.info.Version {
		cont.Run()
		return
	}
	in.dispatch(EvPushStart, idx, cont)
}

// actPushStart scans the copy domain for an existing page owner before
// pushing the pre-write contents (paper §3.7.2); the page waits in
// PushWait for the scan's answer. (pushScan)
func actPushStart(in *Instance, idx vm.PageIdx, m interface{}) {
	cont := m.(sim.Runnable)
	cInst := in.nd.instances[in.info.Copy.ID]
	if cInst == nil {
		panic(fmt.Sprintf("asvm: node %d shares %v but has no instance of its copy %v",
			in.self(), in.info.ID, in.info.Copy.ID))
	}
	if in.pendPush[idx] != nil {
		panic(fmt.Sprintf("asvm: concurrent pushes for %v page %d", in.info.ID, idx))
	}
	in.nd.Ctr.V[sim.CtrPushesStarted]++
	if in.pendPush == nil {
		in.pendPush = make(map[vm.PageIdx]func(bool))
	}
	in.pendPush[idx] = func(found bool) {
		if !found {
			// No owner in the copy domain: insert the pre-write contents
			// into our local representation of the copy object
			// (data_supply in push mode) and own them there.
			pg := in.o.Pages[idx]
			if pg == nil {
				panic(fmt.Sprintf("asvm: push source page %d vanished", idx))
			}
			in.nd.K.DataSupply(in.o, idx, pg.Data, vm.ProtRead, true)
			if cpg := cInst.o.Pages[idx]; cpg != nil {
				cpg.Dirty = true
				cpg.Lock = vm.ProtRead
			}
			cInst.installOwner(idx, nil, 0)
			cInst.announceOwner(idx)
			in.nd.Ctr.V[sim.CtrPushesInstalled]++
		} else {
			in.nd.Ctr.V[sim.CtrPushesCancelled]++
		}
		in.slot(idx).version = in.info.Version
		cont.Run()
	}
	in.setState(idx, StPushWait)
	// Push scan: does the copy domain already have an owner for the page?
	cInst.forward(accessReq{
		Obj: in.info.Copy.ID, Target: in.info.ID, Idx: idx,
		ReqKind: kindPushScan, Origin: in.self(), LastFrom: in.self(),
	})
}

// homePushScan resolves a push scan that found no owner: if the copy
// domain's backing (home store/pager) already has the contents the push is
// unnecessary; otherwise the page slot is reserved for the pusher.
func (in *Instance) homePushScan(req accessReq, hs *pageSlot) {
	found := hs.home.granted() || hs.home.atPager()
	if !found {
		// Reserve: the pusher is about to own this page.
		hs.home |= homeGranted
		in.dyn.Put(req.Idx, req.Origin)
	} else if hs.home.granted() && !hs.home.atPager() {
		// An owner exists but the scan missed it (in-flight transfer);
		// answering found=true is safe: the contents exist in the domain.
		in.nd.Ctr.V[sim.CtrPushScanInflight]++
	}
	in.send(req.Origin, &pushScanAck{SrcObj: req.Target, Idx: req.Idx, Found: found})
}

// actPushScanAck resumes the pushing owner: the page returns to Serving
// and the write grant proceeds (push installed or cancelled). (pushAck)
func actPushScanAck(in *Instance, idx vm.PageIdx, m interface{}) {
	msg := *m.(*pushScanAck)
	cb := in.pendPush[idx]
	if cb == nil {
		panic(fmt.Sprintf("asvm: stray push scan ack for %v page %d", msg.SrcObj, idx))
	}
	delete(in.pendPush, idx)
	in.setState(idx, StServing)
	cb(msg.Found)
}

// pullLocal resolves a request at a copy domain's home (= peer) node: the
// VM system traverses the local shadow chain (memory_object_pull_request);
// a managed shadow object re-enters the forwarding machinery in the source
// domain with the target unchanged (paper §3.7.3, Figure 9).
func (in *Instance) pullLocal(req accessReq, hs *pageSlot) {
	if hs.home.atPager() {
		// The copy page went out to this domain's backing store.
		hs.home = homeGranted
		in.dyn.Put(req.Idx, req.Origin)
		in.homePagerIn(req.Idx, pager.InFunc(func(data []byte, found bool) {
			if !found {
				panic(fmt.Sprintf("asvm: atPager page %d missing from store", req.Idx))
			}
			in.sendGrant(req.Origin, grantMsg{
				Obj: req.Target, Idx: req.Idx, Lock: req.Want,
				Data: copyData(data), HasData: true, Ownership: true,
				From: in.self(),
			})
		}))
		return
	}
	in.nd.Ctr.V[sim.CtrPulls]++
	// The pull traverses the local shadow chain through the EMMI
	// (pull_request/pull_completed): charge one interface crossing.
	in.nd.Eng.Schedule(in.nd.K.Costs.EMMILocal, func() {
		in.pullNow(req, hs)
	})
}

func (in *Instance) pullNow(req accessReq, hs *pageSlot) {
	in.nd.K.PullRequest(in.o, req.Idx, func(res vm.PullResult, data []byte, shadow *vm.Object) {
		switch res {
		case vm.PullData:
			hs.home |= homeGranted
			in.dyn.Put(req.Idx, req.Origin)
			in.sendGrant(req.Origin, grantMsg{
				Obj: req.Target, Idx: req.Idx, Lock: req.Want,
				Data: copyData(data), HasData: true,
				Ownership: true, Version: 0, From: in.self(),
			})
		case vm.PullZeroFill:
			hs.home |= homeGranted
			in.dyn.Put(req.Idx, req.Origin)
			in.sendGrant(req.Origin, grantMsg{
				Obj: req.Target, Idx: req.Idx, Lock: req.Want,
				Fresh: true, Ownership: true, From: in.self(),
			})
		case vm.PullAskManager:
			srcInst, ok := shadow.Mgr.(*Instance)
			if !ok {
				panic(fmt.Sprintf("asvm: pull of page %d reached %v, which no domain manages", req.Idx, shadow.ID))
			}
			// Reserve at this home: the origin will own the page once the
			// source domain answers.
			hs.home |= homeGranted
			in.dyn.Put(req.Idx, req.Origin)
			fwd := req
			fwd.Obj = srcInst.info.ID
			fwd.ReqKind = kindPull
			fwd.Scanning = false
			fwd.Hops = 0
			fwd.LastFrom = in.self()
			srcInst.forward(fwd)
		}
	})
}
