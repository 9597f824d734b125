package asvm

import (
	"asvm/internal/sim"
	"fmt"

	"asvm/internal/mesh"
	"asvm/internal/pager"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// pageSlot is one page's protocol state at this node — one dense table
// entry per page of the domain, replacing the old owner-side pageState map
// and the separate pending-fault map. The slot's PageProtoState encodes
// what the two maps and the busy bool used to say implicitly:
//
//	state.Owner()    ⇔ the old pages[idx] != nil
//	state.Busy()     ⇔ the old pages[idx].busy
//	state.FaultOut() ⇔ the old pend[idx] != nil
//
// The slot array is allocated once per instance and never grows, so
// &in.slots[idx] is a stable pointer the protocol's completion closures
// can capture, and the fault-path lookup is an index, not a map probe.
type pageSlot struct {
	state PageProtoState

	// held marks a range-locked page (§6 extension): foreign requests
	// queue until release. Only meaningful in owner states.
	held bool

	// want is the strongest access the outstanding local fault needs
	// (FaultOut states); retries counts grant retries for it.
	want    vm.Prot
	retries int

	// staleFrom lists nodes that invalidated us while the fault was
	// outstanding: a non-ownership grant one of them sent before the
	// invalidation may still be in flight and must not install.
	staleFrom []mesh.NodeID

	// Owner-side state (owner and busy states). readers iterates in
	// ascending NodeID order by construction (see readerSet).
	readers readerSet
	version uint64 // push version (paper §3.7.2)
	queue   []accessReq
}

// dropStale consumes one stale-grant marker for from, if present.
func (sl *pageSlot) dropStale(from mesh.NodeID) bool {
	for i, n := range sl.staleFrom {
		if n == from {
			sl.staleFrom = append(sl.staleFrom[:i], sl.staleFrom[i+1:]...)
			return true
		}
	}
	return false
}

// homeState is the home node's authoritative view of a page's relationship
// to the pager (conceptually the pager's own metadata).
type homeState struct {
	granted bool // an owner exists (or a grant is in flight)
	atPager bool // latest contents are at the pager
}

// staticEntry is a static ownership manager cache entry.
type staticEntry struct {
	owner mesh.NodeID
	paged bool
}

// Instance is one node's ASVM representation of a memory object.
type Instance struct {
	nd   *Node
	info *DomainInfo
	o    *vm.Object

	pagerCli pager.PagerIO

	slots  []pageSlot
	dyn    *hintCache
	static *staticLRU
	home   map[vm.PageIdx]*homeState
	store  map[vm.PageIdx][]byte // home-side parking when no pager is configured

	seq       uint64
	pendInval map[uint64]invalBatch
	pendXfer  map[uint64]xferWait
	pendPush  map[vm.PageIdx]func(found bool)
	pendPgr   map[uint64]pgrWait

	// awaitFree recycles invalidation await lists so steady-state rounds
	// allocate nothing.
	awaitFree [][]mesh.NodeID

	// transferring suppresses DataReturn while the kernel drops a page
	// whose contents just left with an ownership grant.
	transferring bool

	// invalScratch is the reusable target buffer for invalidation rounds.
	invalScratch []mesh.NodeID

	// Internode paging target selection (paper §3.6).
	pageoutCounter int
	lastAccepted   mesh.NodeID
}

// newInstance creates (or adopts) the node's vm object for the domain and
// wires the instance in as its memory manager.
func newInstance(nd *Node, info *DomainInfo) *Instance {
	in := &Instance{
		nd: nd, info: info,
		slots:     make([]pageSlot, info.SizePages),
		dyn:       newHintCache(info.Cfg.DynamicCacheSize),
		static:    newStaticLRU(info.Cfg.StaticCacheSize),
		home:      make(map[vm.PageIdx]*homeState),
		store:     make(map[vm.PageIdx][]byte),
		pendInval: make(map[uint64]invalBatch),
		pendXfer:  make(map[uint64]xferWait),
		pendPush:  make(map[vm.PageIdx]func(bool)),
		pendPgr:   make(map[uint64]pgrWait),

		lastAccepted: -1,
	}
	if o := nd.K.Object(info.ID); o != nil {
		// Adopt an existing object (promotion of previously node-private
		// memory to an ASVM domain): resident pages become owned here.
		in.o = o
		o.Mgr = in
		o.Strategy = vm.CopyAsymmetric
		for idx := range o.Pages {
			in.installOwner(idx, nil, info.Version)
			if nd.Self == info.Home {
				in.home[idx] = &homeState{granted: true}
			}
		}
	} else {
		in.o = nd.K.NewObject(info.ID, info.SizePages, in, vm.CopyAsymmetric)
	}
	nd.instances[info.ID] = in
	return in
}

// SetPager overrides the home instance's backing-store interface — used
// to wire in a striped multi-pager file (paper §6).
func (in *Instance) SetPager(io pager.PagerIO) { in.pagerCli = io }

// Obj returns the instance's local vm object.
func (in *Instance) Obj() *vm.Object { return in.o }

// Info returns the domain description.
func (in *Instance) Info() *DomainInfo { return in.info }

// Owns reports whether this node currently owns the page.
func (in *Instance) Owns(idx vm.PageIdx) bool { return in.slots[idx].state.Owner() }

// State returns the page's current protocol state at this node.
func (in *Instance) State(idx vm.PageIdx) PageProtoState { return in.slots[idx].state }

func (in *Instance) self() mesh.NodeID { return in.nd.Self }

// installOwner makes this node the page's owner at rest — Owner or
// OwnerSole per the reader list (self is filtered out) — taking over
// whatever state the slot was in. Fault bookkeeping (want/retries/
// staleFrom) is deliberately left in place: ownership can land while a
// local fault is still formally outstanding (push installs), and the
// eventual grant settles it. The slot's reader set keeps its storage
// across ownership episodes, so steady-state transfers allocate nothing.
func (in *Instance) installOwner(idx vm.PageIdx, readerList []mesh.NodeID, version uint64) {
	sl := &in.slots[idx]
	sl.readers.Clear()
	for _, r := range readerList {
		if r != in.self() {
			sl.readers.Add(r)
		}
	}
	sl.version = version
	in.setState(idx, restOwnerState(sl.readers.Len()))
}

// leaveOwner drops ownership: the slot returns to Invalid, keeping any
// queued requests (the drain re-forwards them to the new owner). The
// reader set is emptied but keeps its storage for the slot's next
// ownership episode.
func (in *Instance) leaveOwner(idx vm.PageIdx) {
	sl := &in.slots[idx]
	sl.readers.Clear()
	sl.version = 0
	sl.held = false
	in.setState(idx, StInvalid)
}

// quiesce ends a busy window: the page returns to its at-rest owner state
// (or stays wherever the operation left it, e.g. Invalid after the
// ownership moved away). When a mid-flight checker is attached (schedule
// exploration), this is where it fires: the quiesce is the earliest moment
// the page's cross-node state must be consistent again. Production runs
// pay one nil check.
func (in *Instance) quiesce(idx vm.PageIdx) {
	sl := &in.slots[idx]
	if sl.state.Busy() {
		in.setState(idx, restOwnerState(sl.readers.Len()))
	}
	if in.nd.MidCheck != nil {
		in.nd.MidCheck(in.info, idx)
	}
}

// send ships a protocol message; the payload accounting comes from the
// message itself (xport.Msg), so call sites cannot drift from the wire
// convention.
func (in *Instance) send(to mesh.NodeID, m xport.Msg) {
	in.nd.TR.Send(in.self(), to, Proto, m.WireBytes(), m)
}

// sendGrant ships a grant in a pooled box (see msgPool). The other typed
// senders below do the same for their kinds; together with sendReq they
// cover every hot-path protocol message, so the steady-state send side
// allocates nothing.
func (in *Instance) sendGrant(to mesh.NodeID, g grantMsg) {
	in.send(to, in.nd.grantPool.get(g))
}

func (in *Instance) sendInval(to mesh.NodeID, iv invalMsg) {
	in.send(to, in.nd.invalPool.get(iv))
}

func (in *Instance) sendInvalAck(to mesh.NodeID, a invalAck) {
	in.send(to, in.nd.iackPool.get(a))
}

func (in *Instance) sendOwnerUpdate(to mesh.NodeID, u ownerUpdate) {
	in.send(to, in.nd.oupdPool.get(u))
}

// copyData snapshots page contents for a message (nil stays nil in
// metadata-only runs) into a pooled page buffer, which goes back with the
// message (see msgPool); anything longer reallocates.
func copyData(d []byte) []byte {
	if d == nil {
		return nil
	}
	return append(vm.GetPageBuf()[:0], d...)
}

// ---------------------------------------------------------------------------
// EMMI surface (vm.MemoryManager)

// DataRequest implements vm.MemoryManager: the local VM cache misses.
func (in *Instance) DataRequest(o *vm.Object, idx vm.PageIdx, desired vm.Prot) {
	in.nd.Ctr.V[sim.CtrDataRequests]++
	ev := EvFaultRead
	if desired >= vm.ProtWrite {
		ev = EvFaultWrite
	}
	in.dispatch(ev, idx, desired)
}

// DataUnlock implements vm.MemoryManager: a write upgrade on a resident
// page. If we own the page this is transition 7 of the state machine; else
// the owner sees us on its reader list and grants without contents.
func (in *Instance) DataUnlock(o *vm.Object, idx vm.PageIdx, desired vm.Prot) {
	in.nd.Ctr.V[sim.CtrDataUnlocks]++
	in.dispatch(EvFaultWrite, idx, desired)
}

// Terminate implements vm.MemoryManager.
func (in *Instance) Terminate(o *vm.Object) {}

// actFault starts or widens an outstanding fault at a non-owner: remember
// the strongest access wanted, mark the page faulting, and enter the
// request redirector. (faultStart/faultMerge/upgradeStart)
func actFault(in *Instance, idx vm.PageIdx, m interface{}) {
	desired := m.(vm.Prot)
	sl := &in.slots[idx]
	if desired > sl.want {
		sl.want = desired
	}
	if sl.want >= vm.ProtWrite {
		in.setState(idx, StFaultOutWrite)
	} else {
		in.setState(idx, StFaultOutRead)
	}
	in.forward(accessReq{
		Obj: in.info.ID, Target: in.info.ID, Idx: idx,
		Want: desired, ReqKind: kindAccess,
		Origin: in.self(), LastFrom: in.self(),
	})
}

// actFaultOwner serves (or queues) a local write upgrade at the owner —
// transition 7 of the paper's state machine. (upgradeSelf/upgradeQueue)
func actFaultOwner(in *Instance, idx vm.PageIdx, m interface{}) {
	desired := m.(vm.Prot)
	in.handleAsOwner(accessReq{
		Obj: in.info.ID, Target: in.info.ID, Idx: idx,
		Want: desired, ReqKind: kindAccess,
		Origin: in.self(), LastFrom: in.self(),
	})
}

// ---------------------------------------------------------------------------
// Grant / invalidation handling

// actGrant answers this node's outstanding fault — or tolerates a grant
// that arrives after the fault was satisfied through another path (retry
// races and push installs make that reachable). (grant/grantLate)
func actGrant(in *Instance, idx vm.PageIdx, m interface{}) {
	g := *m.(*grantMsg)
	sl := &in.slots[idx]
	faulting := sl.state.FaultOut()
	if g.Unavailable {
		// The home is down: nothing can ever satisfy this fault. Degrade
		// to a typed failure instead of waiting forever (From names the
		// dead home).
		if faulting {
			in.failFault(idx, &vm.ErrObjectUnavailable{Node: g.From, Obj: in.info.ID, Page: idx})
		}
		return
	}
	if g.Retry {
		if !faulting {
			return // request already satisfied through another path
		}
		sl.retries++
		if sl.retries > 10000 {
			panic(fmt.Sprintf("asvm: grant retry livelock on %v page %d at node %d", in.info.ID, idx, in.self()))
		}
		in.nd.Ctr.V[sim.CtrGrantRetries]++
		in.forward(accessReq{
			Obj: in.info.ID, Target: in.info.ID, Idx: idx,
			Want: sl.want, ReqKind: kindAccess,
			Origin: in.self(), LastFrom: in.self(),
		})
		return
	}
	if faulting && !g.Ownership && sl.dropStale(g.From) {
		// The granting owner invalidated us after issuing this grant (the
		// invalidation overtook it in flight): the copy it carries is dead
		// on arrival. Discard it and chase the current owner. Ownership
		// grants are exempt — they carry present authority, not a copy.
		in.nd.Ctr.V[sim.CtrStaleGrants]++
		in.forward(accessReq{
			Obj: in.info.ID, Target: in.info.ID, Idx: idx,
			Want: sl.want, ReqKind: kindAccess,
			Origin: in.self(), LastFrom: in.self(),
		})
		return
	}
	switch {
	case g.Fresh:
		in.nd.Ctr.V[sim.CtrFreshGrants]++
		in.nd.K.DataUnavailable(in.o, idx, g.Lock)
	case g.HasData:
		in.nd.K.DataSupply(in.o, idx, g.Data, g.Lock, false)
	default:
		in.nd.K.LockGrant(in.o, idx, g.Lock)
	}
	if g.Ownership {
		in.trace("t grant: node %d becomes owner of %v p%d (fresh=%v hasData=%v lock=%v from=%d pendnil=%v)", in.self(), in.info.ID, idx, g.Fresh, g.HasData, g.Lock, g.From, !faulting)
		in.installOwner(idx, g.Readers, g.Version)
		if pg := in.o.Pages[idx]; pg != nil && !g.AtPagerCopy {
			// Unless the pager also holds these contents, the owner is
			// solely responsible for them: never drop silently.
			pg.Dirty = true
		}
		in.announceOwner(idx)
	} else if !sl.state.Owner() {
		in.setState(idx, StReadShared)
	}
	sl.want, sl.retries, sl.staleFrom = 0, 0, nil
}

// announceOwner refreshes the static ownership manager's cache.
func (in *Instance) announceOwner(idx vm.PageIdx) {
	if !in.info.Cfg.StaticForwarding {
		return
	}
	sm := in.info.staticNode(idx)
	upd := ownerUpdate{Obj: in.info.ID, Idx: idx, Owner: in.self()}
	if sm == in.self() {
		in.handleOwnerUpdate(upd)
		return
	}
	in.sendOwnerUpdate(sm, upd)
}

// actOwnerUpdate refreshes the static cache; orthogonal to the page's own
// protocol state. (ownerHint)
func actOwnerUpdate(in *Instance, idx vm.PageIdx, m interface{}) {
	in.handleOwnerUpdate(*m.(*ownerUpdate))
}

func (in *Instance) handleOwnerUpdate(u ownerUpdate) {
	if u.Paged {
		in.static.Put(u.Idx, staticEntry{paged: true})
		return
	}
	in.static.Put(u.Idx, staticEntry{owner: u.Owner})
}

// invalBatch tracks one round of reader invalidations. Batches are stored
// by value in pendInval and the completion steps (back to Serving, reader
// list cleared) run in completeInvalTarget, so a round costs no batch box
// and no wrapper closure — only cont, the caller's own continuation; the
// await list itself comes from a per-instance free list. await names the
// readers whose acks are still due, so a crashed reader's slot can be
// completed for it by the failure machinery.
type invalBatch struct {
	idx   vm.PageIdx
	await []mesh.NodeID
	cont  func()
}

// xferWait is one outstanding ownership-transfer/page-offer completion:
// the continuation plus the node it waits on, so the failure machinery can
// decline entries addressed to a node that died.
type xferWait struct {
	to mesh.NodeID
	cb func(accepted bool)
}

// pgrWait is one outstanding pageout completion, likewise tagged with the
// home node it waits on; dirty marks contents that exist nowhere else, so
// the failure machinery can count them lost if the home dies first.
type pgrWait struct {
	to    mesh.NodeID
	dirty bool
	cb    func()
}

// takeAwait copies targets into a recycled await list.
func (in *Instance) takeAwait(targets []mesh.NodeID) []mesh.NodeID {
	var a []mesh.NodeID
	if n := len(in.awaitFree); n > 0 {
		a = in.awaitFree[n-1][:0]
		in.awaitFree = in.awaitFree[:n-1]
	}
	return append(a, targets...)
}

// clearReaders empties the reader list, keeping its storage.
func (in *Instance) clearReaders(idx vm.PageIdx) {
	in.slots[idx].readers.Clear()
}

// invalidateReaders sends invalidations to every reader except keep, waits
// for all acks in the InvalWait state, clears the reader list and resumes
// the Serving window (transitions 6/7). The reader set iterates in
// ascending NodeID order, so the invalidation fan-out order is
// deterministic with no sort.
func (in *Instance) invalidateReaders(idx vm.PageIdx, newOwner mesh.NodeID, cont func()) {
	sl := &in.slots[idx]
	all := sl.readers.AppendTo(in.invalScratch[:0])
	targets := all[:0]
	for _, r := range all {
		if r != newOwner && r != in.self() {
			targets = append(targets, r)
		}
	}
	in.invalScratch = all // keep the grown capacity for the next round
	if len(targets) == 0 {
		in.clearReaders(idx)
		cont()
		return
	}
	in.seq++
	seq := in.seq
	in.setState(idx, StInvalWait)
	in.pendInval[seq] = invalBatch{idx: idx, await: in.takeAwait(targets), cont: cont}
	for _, r := range targets {
		in.nd.Ctr.V[sim.CtrInvalidations]++
		in.sendInval(r, invalMsg{Obj: in.info.ID, Idx: idx, NewOwner: newOwner, Seq: seq, From: in.self()})
	}
}

// actInval is transition 8 at a reader: drop the read copy, learn the new
// owner, and — if our own fault is outstanding — remember the sender so a
// grant it issued before invalidating us is discarded on arrival.
// (invalLate/invalStale/invalDrop)
func actInval(in *Instance, idx vm.PageIdx, m interface{}) {
	iv := *m.(*invalMsg)
	// Dropping a dirty copy re-enters the machine as EvEvict (the kernel
	// returns the contents); a clean copy is just removed.
	in.nd.K.LockRequest(in.o, idx, vm.ProtNone, false, nil)
	sl := &in.slots[idx]
	if sl.state.FaultOut() {
		// The sender may have served our outstanding fault just before
		// invalidating us — that grant is still in flight and now stale.
		sl.staleFrom = append(sl.staleFrom, iv.From)
	}
	if in.info.Cfg.DynamicForwarding {
		in.dyn.Put(idx, iv.NewOwner)
	}
	in.sendInvalAck(iv.From, invalAck{Obj: in.info.ID, Idx: idx, Seq: iv.Seq, From: in.self()})
	if sl.state == StReadShared {
		// A clean copy's removal fires no DataReturn: normalize here.
		in.setState(idx, StInvalid)
	}
}

// actInvalAck completes one invalidation in the owner's InvalWait round.
// An ack whose round (or await slot) is gone is a protocol bug — except
// after a crash, where the failure machinery may have completed the round
// for a dead reader whose ack was still in flight. (invalAck)
func actInvalAck(in *Instance, idx vm.PageIdx, m interface{}) {
	ack := *m.(*invalAck)
	if in.completeInvalTarget(ack.Seq, ack.From) {
		return
	}
	if !in.nd.crashEra {
		panic(fmt.Sprintf("asvm: stray invalidation ack seq %d", ack.Seq))
	}
	in.nd.Ctr.V[sim.CtrLateAcks]++
}

// completeInvalTarget strikes one reader from an invalidation round,
// running the round's completion when it was the last ack due. It reports
// whether the (seq, reader) pair was actually outstanding — a duplicate or
// post-crash completion returns false and changes nothing.
func (in *Instance) completeInvalTarget(seq uint64, from mesh.NodeID) bool {
	b, ok := in.pendInval[seq]
	if !ok {
		return false
	}
	i := -1
	for j, t := range b.await {
		if t == from {
			i = j
			break
		}
	}
	if i < 0 {
		return false
	}
	b.await = append(b.await[:i], b.await[i+1:]...)
	if len(b.await) > 0 {
		in.pendInval[seq] = b
		return true
	}
	delete(in.pendInval, seq)
	in.awaitFree = append(in.awaitFree, b.await)
	in.setState(b.idx, StServing)
	in.clearReaders(b.idx)
	b.cont()
	return true
}

// completeXfer resumes one transfer/offer completion. It reports whether
// the seq was still outstanding.
func (in *Instance) completeXfer(seq uint64, accepted bool) bool {
	w, ok := in.pendXfer[seq]
	if !ok {
		return false
	}
	delete(in.pendXfer, seq)
	w.cb(accepted)
	return true
}

// completePgr resumes one pageout completion. It reports whether the seq
// was still outstanding.
func (in *Instance) completePgr(seq uint64) bool {
	w, ok := in.pendPgr[seq]
	if !ok {
		return false
	}
	delete(in.pendPgr, seq)
	w.cb()
	return true
}

var _ vm.MemoryManager = (*Instance)(nil)
