package asvm

import (
	"asvm/internal/sim"
	"fmt"
	"slices"
	"unsafe"

	"asvm/internal/mesh"
	"asvm/internal/pager"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// pageSlot is one page's protocol state at this node, an entry of the
// instance's slot table (slotTable).
//
// A slot holds no pointer (TestPageSlotIsPointerFree), so the garbage
// collector never scans the table: a promoted reader set's bitset lives in
// the instance's readerArena, the rarely used request queue and
// stale-grant markers in its side table (slotSide).
type pageSlot struct {
	version uint64  // push version (paper §3.7.2); owner side
	want    vm.Prot // strongest access the outstanding local fault needs
	retries int32   // grant retries for that fault
	state   PageProtoState

	// held marks a range-locked page (§6 extension): foreign requests
	// queue until release. Only meaningful in owner states.
	held bool
	side bool // the page has an entry in Instance.side

	// home is the home node's view of the page's relationship to the
	// pager; only the home's slots set it.
	home homeFlags

	// Owner-side readers, ascending NodeID by construction (readerSet).
	readers readerSet
}

// homeFlags is the home node's authoritative view of a page's
// relationship to the pager (conceptually the pager's own metadata).
type homeFlags uint8

const (
	homeGranted homeFlags = 1 << iota // an owner exists (or a grant is in flight)
	homeAtPager                       // latest contents are at the pager
)

func (f homeFlags) granted() bool { return f&homeGranted != 0 }
func (f homeFlags) atPager() bool { return f&homeAtPager != 0 }

// slotChunkBits sizes the slot table's chunks: 8 slots, 448 bytes.
const slotChunkBits = 3

// slotChunk is one run of the slot table.
type slotChunk [1 << slotChunkBits]pageSlot

// slotTable is an instance's per-page protocol state: a directory holding
// one pointer per 8 pages, and behind it an 8-slot chunk from the first
// write to one of its slots. A node pays for the pages it touched; a page
// nobody wrote here reads as the zero slot (Invalid, no readers, no home
// flags). Chunks never move, so a *pageSlot stays valid for the
// instance's life and the protocol's completion closures may capture one.
//
// Chunks are handed out of slabs that double with the chunks in use, up
// to slabChunks: first touches cost one allocation per slab, and an
// instance that touched little holds little spare.
type slotTable struct {
	dir   []*slotChunk
	slab  []slotChunk // chunks not yet handed out
	used  int         // chunks handed out
	pages vm.PageIdx
}

// slabChunks caps a slab: 16 chunks, 7 KB.
const slabChunks = 16

func newSlotTable(pages vm.PageIdx) slotTable {
	return slotTable{dir: make([]*slotChunk, (pages+1<<slotChunkBits-1)>>slotChunkBits), pages: pages}
}

// at returns the page's slot for writing, handing its chunk out on first
// use.
func (t *slotTable) at(idx vm.PageIdx) *pageSlot {
	c := t.dir[idx>>slotChunkBits]
	if c == nil {
		if len(t.slab) == 0 {
			t.slab = make([]slotChunk, min(max(t.used, 1), slabChunks))
		}
		c = &t.slab[0]
		t.slab = t.slab[1:]
		t.used++
		t.dir[idx>>slotChunkBits] = c
	}
	return &c[idx&(1<<slotChunkBits-1)]
}

// get returns a copy of the page's slot, allocating nothing.
func (t *slotTable) get(idx vm.PageIdx) pageSlot {
	if c := t.dir[idx>>slotChunkBits]; c != nil {
		return c[idx&(1<<slotChunkBits-1)]
	}
	return pageSlot{}
}

// state returns the page's protocol state, allocating nothing.
func (t *slotTable) state(idx vm.PageIdx) PageProtoState {
	if c := t.dir[idx>>slotChunkBits]; c != nil {
		return c[idx&(1<<slotChunkBits-1)].state
	}
	return StInvalid
}

// each calls fn on every slot that has a chunk, in page order, until fn
// returns false. A page without a chunk is in the zero slot, which every
// caller's predicate skips; a chunk fn allocates further on is visited.
func (t *slotTable) each(fn func(idx vm.PageIdx, sl *pageSlot) bool) {
	for ci, c := range t.dir {
		if c == nil {
			continue
		}
		for j := range c {
			idx := vm.PageIdx(ci<<slotChunkBits + j)
			if idx >= t.pages || !fn(idx, &c[j]) {
				return
			}
		}
	}
}

// bytes is the table's page state: the directory and the chunks handed
// out (a slab's spare chunks, fewer than slabChunks, are not counted).
func (t *slotTable) bytes() int64 {
	return int64(len(t.dir))*int64(unsafe.Sizeof((*slotChunk)(nil))) +
		int64(t.used)*int64(unsafe.Sizeof(slotChunk{}))
}

// slotSide is a page's side-table entry, made the first time the page
// queues a request or records a stale grant and kept until the slot
// resets, so steady-state queueing allocates nothing.
type slotSide struct {
	queue []accessReq // requests waiting for a busy or range-locked owner

	// staleFrom lists nodes that invalidated us while the fault was
	// outstanding: a non-ownership grant one of them sent before the
	// invalidation may still be in flight and must not install.
	staleFrom []mesh.NodeID
}

// sideOf returns the page's side-table entry, making it if absent.
func (in *Instance) sideOf(idx vm.PageIdx) *slotSide {
	if sl := in.slot(idx); !sl.side {
		sl.side = true
		if in.side == nil {
			in.side = make(map[vm.PageIdx]*slotSide)
		}
		in.side[idx] = &slotSide{}
	}
	return in.side[idx]
}

// dropStale consumes one stale-grant marker for from, if present.
func (in *Instance) dropStale(idx vm.PageIdx, from mesh.NodeID) bool {
	if !in.slots.get(idx).side {
		return false
	}
	ss := in.side[idx]
	i := slices.Index(ss.staleFrom, from)
	if i >= 0 {
		ss.staleFrom = slices.Delete(ss.staleFrom, i, i+1)
	}
	return i >= 0
}

// endFault clears the outstanding fault's want, retries and stale markers.
func (in *Instance) endFault(idx vm.PageIdx) {
	sl := in.slot(idx)
	sl.want, sl.retries = 0, 0
	if sl.side {
		in.side[idx].staleFrom = in.side[idx].staleFrom[:0]
	}
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

	// ringPos is this node's position in info.Mapping, where ring scans
	// hop on from. Mapping only grows, so it never changes.
	ringPos int

	pagerCli pager.PagerIO

	// Only the slot directory is made up front; every table below is made
	// on its first write, and a cache holds at most the object's pages.
	slots  slotTable
	side   map[vm.PageIdx]*slotSide // see slotSide
	dyn    fifoCache[mesh.NodeID]
	static fifoCache[staticEntry]
	store  map[vm.PageIdx][]byte // home-side parking when no pager is configured

	seq      uint64
	pend     map[uint64]pendWait // by seq: invalidation rounds, transfers, offers, pageouts
	pendPush map[vm.PageIdx]func(found bool)

	arena readerArena // the slots' promoted reader sets

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
func newInstance(nd *Node, info *DomainInfo, ringPos int) *Instance {
	in := &Instance{
		nd: nd, info: info, ringPos: ringPos,
		slots:  newSlotTable(info.SizePages),
		arena:  readerArena{info: info},
		dyn:    newFIFOCache[mesh.NodeID](min(info.Cfg.DynamicCacheSize, int(info.SizePages))),
		static: newFIFOCache[staticEntry](min(info.Cfg.StaticCacheSize, int(info.SizePages))),

		lastAccepted: -1,
	}
	if o := nd.K.Object(info.ID); o != nil {
		// Adopt an existing object (promotion of previously node-private
		// memory to an ASVM domain): resident pages become owned here.
		in.o = o
		o.Mgr = in
		o.Strategy = vm.CopyAsymmetric
		for i, pg := range o.Pages {
			if idx := vm.PageIdx(i); pg != nil {
				in.installOwner(idx, nil, info.Version)
				if nd.Self == info.Home {
					in.slot(idx).home = homeGranted
				}
			}
		}
	} else {
		in.o = nd.K.NewObject(info.ID, info.SizePages, in, vm.CopyAsymmetric)
	}
	nd.instances[info.ID] = in
	return in
}

// SetPager hands the home instance its backing store: one pager's client,
// or a striped file's round-robin set (paper §6). Without one the home
// zero-fills and parks page-outs in memory.
func (in *Instance) SetPager(io pager.PagerIO) { in.pagerCli = io }

// Obj returns the instance's local vm object.
func (in *Instance) Obj() *vm.Object { return in.o }

// Info returns the domain description.
func (in *Instance) Info() *DomainInfo { return in.info }

// Owns reports whether this node currently owns the page.
func (in *Instance) Owns(idx vm.PageIdx) bool { return in.slots.state(idx).Owner() }

// State returns the page's current protocol state at this node.
func (in *Instance) State(idx vm.PageIdx) PageProtoState { return in.slots.state(idx) }

// slot returns the page's slot for writing (slotTable.at).
func (in *Instance) slot(idx vm.PageIdx) *pageSlot { return in.slots.at(idx) }

func (in *Instance) self() mesh.NodeID { return in.nd.Self }

// installOwner makes this node the page's owner at rest — Owner or
// OwnerSole per the reader list (self is filtered out) — taking over
// whatever state the slot was in. Fault bookkeeping (want, retries, stale
// markers) is deliberately left in place: ownership can land while a
// local fault is still formally outstanding (push installs), and the
// eventual grant settles it. The slot's reader set keeps its storage
// across ownership episodes, so steady-state transfers allocate nothing.
func (in *Instance) installOwner(idx vm.PageIdx, readerList []mesh.NodeID, version uint64) {
	sl := in.slot(idx)
	sl.readers.Clear(&in.arena)
	for _, r := range readerList {
		if r != in.self() {
			sl.readers.Add(&in.arena, r)
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
	sl := in.slot(idx)
	sl.readers.Clear(&in.arena)
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
	sl := in.slot(idx)
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

// sendGrant ships a grant in a pooled box (see msgPools). The other typed
// senders below do the same for their kinds; together with sendReq they
// cover every hot-path protocol message, so the steady-state send side
// allocates nothing.
func (in *Instance) sendGrant(to mesh.NodeID, g grantMsg) {
	in.send(to, in.nd.pools.grant.Get(g))
}

func (in *Instance) sendInval(to mesh.NodeID, iv invalMsg) {
	in.send(to, in.nd.pools.inval.Get(iv))
}

func (in *Instance) sendInvalAck(to mesh.NodeID, a invalAck) {
	in.send(to, in.nd.pools.iack.Get(a))
}

func (in *Instance) sendOwnerUpdate(to mesh.NodeID, u ownerUpdate) {
	in.send(to, in.nd.pools.oupd.Get(u))
}

// copyData snapshots page contents for a message (nil stays nil in
// metadata-only runs) into a pooled page buffer, which goes back with the
// message (see msgPools); anything longer reallocates.
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

// actFault starts or widens an outstanding fault at a non-owner: remember
// the strongest access wanted, mark the page faulting, and enter the
// request redirector. (faultStart/faultMerge/upgradeStart)
func actFault(in *Instance, idx vm.PageIdx, m interface{}) {
	desired := m.(vm.Prot)
	sl := in.slot(idx)
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
	sl := in.slot(idx)
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
	if faulting && !g.Ownership && in.dropStale(idx, g.From) {
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
		if in.nd.Trace.on {
			in.trace("t grant: node %d becomes owner of %v p%d (fresh=%v hasData=%v lock=%v from=%d pendnil=%v)", in.self(), in.info.ID, idx, g.Fresh, g.HasData, g.Lock, g.From, !faulting)
		}
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
	in.endFault(idx)
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

// pendWait is one protocol wait outstanding at this node, stored by value
// in Instance.pend under its seq; the kinds share in.seq, so keys never
// collide, and a completion for the wrong kind finds nothing outstanding.
// An invalidation round names its page, the readers whose acks are still
// due and the write grant's pooled writeOp to continue with (its await
// list comes from a free list: a round costs no box and no closure). A
// transfer, offer or pageout names the node it waits on; a pageout's dirty
// marks contents that exist nowhere else. The failure machinery completes
// the waits on a node that died (completePendingFor).
type pendWait struct {
	kind  waitKind
	to    mesh.NodeID
	dirty bool
	idx   vm.PageIdx
	await []mesh.NodeID
	cont  sim.Runnable
	cb    func(accepted bool) // a transfer's or offer's; a pageout's ignores accepted
}

type waitKind uint8

const (
	waitInval waitKind = iota // a round of reader invalidations
	waitXfer                  // an ownership transfer or page offer
	waitPgr                   // a pageout to the home
)

// wait records w under the next sequence number and returns it.
func (in *Instance) wait(w pendWait) uint64 {
	in.seq++
	if in.pend == nil {
		in.pend = make(map[uint64]pendWait)
	}
	in.pend[in.seq] = w
	return in.seq
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
	in.slot(idx).readers.Clear(&in.arena)
}

// invalidateReaders sends invalidations to every reader except keep, waits
// for all acks in the InvalWait state, clears the reader list and resumes
// the Serving window (transitions 6/7). The reader set iterates in
// ascending NodeID order, so the invalidation fan-out order is
// deterministic with no sort.
func (in *Instance) invalidateReaders(idx vm.PageIdx, newOwner mesh.NodeID, cont sim.Runnable) {
	sl := in.slot(idx)
	all := sl.readers.AppendTo(&in.arena, in.invalScratch[:0])
	targets := all[:0]
	for _, r := range all {
		if r != newOwner && r != in.self() {
			targets = append(targets, r)
		}
	}
	in.invalScratch = all // keep the grown capacity for the next round
	if len(targets) == 0 {
		in.clearReaders(idx)
		cont.Run()
		return
	}
	seq := in.wait(pendWait{kind: waitInval, idx: idx, await: in.takeAwait(targets), cont: cont})
	in.setState(idx, StInvalWait)
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
	sl := in.slot(idx)
	if sl.state.FaultOut() {
		// The sender may have served our outstanding fault just before
		// invalidating us — that grant is still in flight and now stale.
		ss := in.sideOf(idx)
		ss.staleFrom = append(ss.staleFrom, iv.From)
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
	b, ok := in.pend[seq]
	if !ok || b.kind != waitInval {
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
		in.pend[seq] = b
		return true
	}
	delete(in.pend, seq)
	in.awaitFree = append(in.awaitFree, b.await)
	in.setState(b.idx, StServing)
	in.clearReaders(b.idx)
	b.cont.Run()
	return true
}

// completeWait resumes one transfer, offer or pageout completion. It
// reports whether the seq was still outstanding as a wait of that kind.
func (in *Instance) completeWait(seq uint64, kind waitKind, accepted bool) bool {
	w, ok := in.pend[seq]
	if !ok || w.kind != kind {
		return false
	}
	delete(in.pend, seq)
	w.cb(accepted)
	return true
}

var _ vm.MemoryManager = (*Instance)(nil)
