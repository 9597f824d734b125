package vm

import (
	"fmt"

	"asvm/internal/mesh"
	"asvm/internal/sim"
)

// Kernel is one node's virtual memory system.
type Kernel struct {
	Node  mesh.NodeID
	Eng   *sim.Engine
	Costs Costs
	Mem   *PhysMem

	// TrackData enables real page contents (8 KB buffers); correctness
	// tests use it, large benchmarks run metadata-only.
	TrackData bool

	// DefaultMgr is the default-pager binding used for anonymous memory
	// page-out. Nil disables anonymous pageout (pages are then pinned by
	// cleanliness rules).
	DefaultMgr MemoryManager

	// Ctr accumulates kernel-level statistics (faults, zero fills, ...).
	Ctr *sim.Counters

	objects map[ObjID]*Object
	nextSeq uint64
	lruTick uint64

	evictWaiters  map[pageKey]*sim.Future
	pageoutQueued bool

	// reqFree recycles pendingReq records (with their embedded futures):
	// one is consumed per data request/unlock, which makes them the fault
	// path's last steady-state allocation. A record returns here when its
	// request completed and the last waiter left (see waitPending).
	reqFree []*pendingReq

	// crashed marks a dead node (crash-stop model): every fault fails
	// immediately with ErrNodeCrashed until Restart.
	crashed bool
}

// newPendingReq takes a recycled pendingReq or allocates one; its embedded
// future comes back incomplete and bound to the kernel's engine.
func (k *Kernel) newPendingReq(want Prot) *pendingReq {
	var req *pendingReq
	if n := len(k.reqFree); n > 0 {
		req = k.reqFree[n-1]
		k.reqFree = k.reqFree[:n-1]
	} else {
		req = &pendingReq{}
	}
	req.want = want
	req.err = nil
	req.future.Reinit(k.Eng)
	return req
}

// waitPending parks p on the request's future, and recycles the record
// once it is complete and the last waiter has resumed. The refcount is
// what makes recycling sound: completion wakes waiters asynchronously, so
// the completer cannot know when the record is dead — the last waiter out
// does. It returns the request's verdict: nil when granted, or the typed
// error a failPending carried (node crash, object unavailable).
func (k *Kernel) waitPending(p *sim.Proc, req *pendingReq) error {
	req.refs++
	req.future.Wait(p)
	req.refs--
	err := req.err
	if req.refs == 0 && req.future.Done() {
		k.reqFree = append(k.reqFree, req)
	}
	return err
}

type pageKey struct {
	id  ObjID
	idx PageIdx
}

// NewKernel creates a node kernel.
func NewKernel(eng *sim.Engine, node mesh.NodeID, costs Costs, mem *PhysMem, trackData bool) *Kernel {
	return &Kernel{
		Node:         node,
		Eng:          eng,
		Costs:        costs,
		Mem:          mem,
		TrackData:    trackData,
		Ctr:          sim.NewCounters(),
		objects:      make(map[ObjID]*Object),
		evictWaiters: make(map[pageKey]*sim.Future),
	}
}

// NextID allocates a fresh object ID local to this node.
func (k *Kernel) NextID() ObjID {
	k.nextSeq++
	return ObjID{Node: k.Node, Seq: k.nextSeq}
}

// Object returns the node's representation of id, or nil.
func (k *Kernel) Object(id ObjID) *Object { return k.objects[id] }

// Objects returns the number of live objects on this node.
func (k *Kernel) Objects() int { return len(k.objects) }

// DestroyObject forgets an object (after Terminate handling).
func (k *Kernel) DestroyObject(o *Object) {
	for idx := range o.Pages {
		k.removeFrame(o, idx)
	}
	o.Terminated = true
	delete(k.objects, o.ID)
}

// ---------------------------------------------------------------------------
// Page frame management

func (k *Kernel) touch(pg *Page) {
	k.lruTick++
	pg.lruTick = k.lruTick
}

// InstallPage inserts page contents into an object with the given lock and
// returns the new page. It panics if the page is already resident — callers
// must check. data may be nil (zero / untracked) and is copied, never
// adopted: the caller's buffer stays the caller's.
func (k *Kernel) InstallPage(o *Object, idx PageIdx, data []byte, lock Prot) *Page {
	if _, dup := o.Pages[idx]; dup {
		panic(fmt.Sprintf("vm: double install of %v page %d on node %d", o.ID, idx, k.Node))
	}
	pg := &Page{Idx: idx, Lock: lock}
	if k.TrackData {
		pg.Data = GetPageBuf() // recycled: every byte is overwritten
		clear(pg.Data[copy(pg.Data, data):])
	}
	o.Pages[idx] = pg
	k.Mem.ResidentPages++
	k.touch(pg)
	k.kickPageout()
	return pg
}

// removeFrame drops a resident page and frees its frame (back to the pool:
// nothing may still hold the page's Data).
func (k *Kernel) removeFrame(o *Object, idx PageIdx) {
	pg, ok := o.Pages[idx]
	if !ok {
		return
	}
	if pg.Evicting {
		k.Mem.EvictingPages--
	}
	delete(o.Pages, idx)
	k.Mem.ResidentPages--
	PutPageBuf(pg.Data)
	pg.Data = nil
}

// RemovePage is removeFrame plus waking any procs waiting for an eviction
// to finish. Managers call it to complete flushes and evictions.
func (k *Kernel) RemovePage(o *Object, idx PageIdx) {
	k.removeFrame(o, idx)
	key := pageKey{o.ID, idx}
	if f, ok := k.evictWaiters[key]; ok {
		delete(k.evictWaiters, key)
		f.Set(nil)
	}
}

// Pin protects a page from eviction (in-flight protocol transfer).
func (k *Kernel) Pin(o *Object, idx PageIdx) {
	if pg := o.Pages[idx]; pg != nil {
		pg.Pinned = true
	}
}

// Unpin releases a Pin.
func (k *Kernel) Unpin(o *Object, idx PageIdx) {
	if pg := o.Pages[idx]; pg != nil {
		pg.Pinned = false
	}
}

// ---------------------------------------------------------------------------
// Pageout (eviction)

// kickPageout schedules a pageout scan if occupancy crossed the high
// watermark.
func (k *Kernel) kickPageout() {
	if !k.Mem.NeedsEviction() || k.pageoutQueued {
		return
	}
	k.pageoutQueued = true
	k.Eng.Schedule(0, func() {
		k.pageoutQueued = false
		k.pageoutScan()
	})
}

// pageoutScan evicts LRU pages until occupancy is under the low watermark
// or no evictable pages remain. Evictions complete asynchronously through
// the object's memory manager.
func (k *Kernel) pageoutScan() {
	tried := make(map[*Page]bool)
	for k.Mem.AboveLowWater() {
		o, pg := k.lruVictim(tried)
		if pg == nil {
			return // nothing evictable right now
		}
		tried[pg] = true
		k.startEviction(o, pg)
	}
}

// lruVictim returns the least recently used evictable page not yet tried in
// this scan, or nil.
func (k *Kernel) lruVictim(tried map[*Page]bool) (*Object, *Page) {
	var bestO *Object
	var bestP *Page
	for _, o := range k.objects {
		for _, pg := range o.Pages {
			if pg.Pinned || pg.Evicting || tried[pg] {
				continue
			}
			if bestP == nil || pg.lruTick < bestP.lruTick ||
				(pg.lruTick == bestP.lruTick && o.ID.Seq < bestO.ID.Seq) {
				bestO, bestP = o, pg
			}
		}
	}
	return bestO, bestP
}

// startEviction begins the eviction protocol for one page.
func (k *Kernel) startEviction(o *Object, pg *Page) {
	pg.Evicting = true
	k.Mem.EvictingPages++
	k.Mem.Evictions++
	k.Ctr.V[sim.CtrEvictions]++
	idx := pg.Idx
	if o.Mgr != nil {
		// Managed object: the manager (pager binding / XMM / ASVM) decides
		// where the page goes and finishes with RemovePage.
		o.Mgr.DataReturn(o, idx, pg.Data, pg.Dirty, false)
		return
	}
	// Anonymous memory.
	if pg.Dirty {
		if k.DefaultMgr == nil {
			// Nowhere to put it; give up on this page (stays resident).
			pg.Evicting = false
			k.Mem.EvictingPages--
			k.Ctr.V[sim.CtrEvictStuck]++
			return
		}
		o.PagedOut[idx] = true
		k.DefaultMgr.DataReturn(o, idx, pg.Data, true, false)
		return
	}
	if o.PagedOut[idx] {
		// Clean page with a valid copy at the default pager: drop it; a
		// later fault pages it back in.
		k.Ctr.V[sim.CtrEvictDrop]++
		k.RemovePage(o, idx)
		return
	}
	// Clean anonymous page: contents are reproducible (zero fill or a prior
	// pageout copy) — just drop it.
	k.Ctr.V[sim.CtrEvictDrop]++
	k.RemovePage(o, idx)
}

// CancelEviction aborts an in-progress eviction, leaving the page
// resident. Managers call it when the page is busy in a protocol operation
// and this pageout round should skip it. Waiting faulters are woken to
// retry against the still-resident page.
func (k *Kernel) CancelEviction(o *Object, idx PageIdx) {
	pg := o.Pages[idx]
	if pg == nil || !pg.Evicting {
		return
	}
	pg.Evicting = false
	k.Mem.EvictingPages--
	k.Ctr.V[sim.CtrEvictCancelled]++
	key := pageKey{o.ID, idx}
	if f, ok := k.evictWaiters[key]; ok {
		delete(k.evictWaiters, key)
		f.Set(nil)
	}
}

// waitEviction blocks the faulting proc until the in-progress eviction of
// (o, idx) finishes.
func (k *Kernel) waitEviction(p *sim.Proc, o *Object, idx PageIdx) {
	key := pageKey{o.ID, idx}
	f, ok := k.evictWaiters[key]
	if !ok {
		f = sim.NewFuture(k.Eng)
		k.evictWaiters[key] = f
	}
	f.Wait(p)
}

// ---------------------------------------------------------------------------
// Fault handling

// maxFaultRetries bounds the retry loop; exceeding it means a protocol
// livelock, which we surface loudly rather than spin forever.
const maxFaultRetries = 10000

// ErrFaultRetryExhausted reports a fault whose retry loop never converged:
// every pass found the page's state changed again (a protocol livelock).
// It carries enough context to identify the spinning access.
type ErrFaultRetryExhausted struct {
	Node    mesh.NodeID
	Obj     ObjID
	Page    PageIdx
	Retries int
}

func (e *ErrFaultRetryExhausted) Error() string {
	return fmt.Sprintf("vm: fault livelock on node %d: %v page %d still unresolved after %d retries",
		e.Node, e.Obj, e.Page, e.Retries)
}

// ErrNodeCrashed is the typed verdict every in-flight and future fault on a
// crashed node receives: the node is dead, nothing will be granted until a
// restart rebuilds it cold.
type ErrNodeCrashed struct {
	Node mesh.NodeID
}

func (e *ErrNodeCrashed) Error() string {
	return fmt.Sprintf("vm: node %d crashed", e.Node)
}

// ErrObjectUnavailable is the typed replacement for the old home-bounce
// panic: the fault chased the object all the way to its home node and the
// home is down, so no grant can ever arrive. The fault aborts cleanly
// instead of hanging or crashing the run.
type ErrObjectUnavailable struct {
	Node mesh.NodeID // the unreachable node (the object's home)
	Obj  ObjID
	Page PageIdx
}

func (e *ErrObjectUnavailable) Error() string {
	return fmt.Sprintf("vm: %v page %d unavailable: home node %d is down", e.Obj, e.Page, e.Node)
}

// FailPending delivers a typed failure to every proc waiting on (o, idx):
// the request is complete, but with an error instead of a grant. Managers
// call it when a peer crash makes the grant impossible.
func (k *Kernel) FailPending(o *Object, idx PageIdx, err error) {
	if req := o.pending[idx]; req != nil {
		delete(o.pending, idx)
		req.err = err
		req.future.Set(nil)
	}
}

// Crash kills this node (crash-stop): every outstanding fault and eviction
// wait resolves with ErrNodeCrashed, and new faults fail immediately. The
// node's objects stay in place so a restart (or post-mortem inspection) can
// walk them; the cluster layer tears down distributed state separately.
func (k *Kernel) Crash() int {
	k.crashed = true
	err := &ErrNodeCrashed{Node: k.Node}
	failed := 0
	for _, o := range k.objects {
		for idx := range o.pending {
			k.FailPending(o, idx, err)
			failed++
		}
	}
	for key, f := range k.evictWaiters {
		delete(k.evictWaiters, key)
		f.Set(nil)
	}
	return failed
}

// Restart clears the crash flag; the cluster layer rebuilds the node's
// distributed state (cold caches) around it.
func (k *Kernel) Restart() { k.crashed = false }

// Crashed reports whether the node is currently dead.
func (k *Kernel) Crashed() bool { return k.crashed }

// Fault resolves a page fault for the calling proc: addr in map m with the
// desired access. It blocks the proc in simulated time until the fault is
// resolved and returns the page that satisfied it (which may belong to a
// shadow object for read faults).
func (k *Kernel) Fault(p *sim.Proc, m *Map, addr Addr, want Prot) (*Page, error) {
	if want != ProtRead && want != ProtWrite {
		return nil, fmt.Errorf("vm: fault wants %v", want)
	}
	k.Ctr.V[sim.CtrFaults]++
	p.Sleep(k.Costs.FaultBase)

	var lastObj ObjID
	var lastIdx PageIdx
	for retry := 0; retry < maxFaultRetries; retry++ {
		if k.crashed {
			return nil, &ErrNodeCrashed{Node: k.Node}
		}
		entry := m.Lookup(addr)
		if entry == nil {
			return nil, fmt.Errorf("vm: no mapping for %#x on node %d", addr, k.Node)
		}
		if !entry.MaxProt.Allows(want) {
			return nil, fmt.Errorf("vm: protection violation at %#x (%v > %v)", addr, want, entry.MaxProt)
		}
		// Symmetric delayed copy: interpose a shadow object at the first
		// write fault (paper Figure 2).
		if want == ProtWrite && entry.NeedsCopy {
			k.interposeShadow(entry)
		}
		obj := entry.Object
		idx := entry.pageIndex(addr)
		if idx < 0 || idx >= obj.SizePages {
			return nil, fmt.Errorf("vm: page %d outside %v", idx, obj.ID)
		}
		lastObj, lastIdx = obj.ID, idx

		pg, done, err := k.faultStep(p, obj, idx, want)
		if err != nil {
			return nil, err
		}
		if done {
			return pg, nil
		}
		// State changed while we waited; retry the whole lookup.
	}
	return nil, &ErrFaultRetryExhausted{Node: k.Node, Obj: lastObj, Page: lastIdx, Retries: maxFaultRetries}
}

// FaultObject resolves a fault directly against an object (no address map);
// used by pagers and tests.
func (k *Kernel) FaultObject(p *sim.Proc, obj *Object, idx PageIdx, want Prot) (*Page, error) {
	k.Ctr.V[sim.CtrFaults]++
	p.Sleep(k.Costs.FaultBase)
	for retry := 0; retry < maxFaultRetries; retry++ {
		if k.crashed {
			return nil, &ErrNodeCrashed{Node: k.Node}
		}
		pg, done, err := k.faultStep(p, obj, idx, want)
		if err != nil {
			return nil, err
		}
		if done {
			return pg, nil
		}
	}
	return nil, &ErrFaultRetryExhausted{Node: k.Node, Obj: obj.ID, Page: idx, Retries: maxFaultRetries}
}

// faultStep makes one pass down the shadow chain. It either resolves the
// fault (done=true), or blocks the proc waiting for some asynchronous state
// change and asks the caller to retry (done=false).
func (k *Kernel) faultStep(p *sim.Proc, obj *Object, idx PageIdx, want Prot) (*Page, bool, error) {
	for cur := obj; cur != nil; cur = cur.Shadow {
		pg := cur.Pages[idx]
		if pg != nil {
			if pg.Evicting {
				k.waitEviction(p, cur, idx)
				return nil, false, nil
			}
			if cur == obj {
				return k.faultTopHit(p, obj, idx, pg, want)
			}
			return k.faultShadowHit(p, obj, cur, idx, pg, want)
		}
		if req := cur.pending[idx]; req != nil {
			// Coalesce with the in-flight request for this page.
			return nil, false, k.waitPending(p, req)
		}
		if cur.Mgr != nil {
			// First managed object in the chain: stop the local walk and
			// ask its manager (paper §3.7.3).
			desired := want
			if cur != obj {
				desired = ProtRead // below the top we only ever read
			}
			return nil, false, k.sendDataRequest(p, cur, idx, desired)
		}
		if cur.PagedOut[idx] {
			// Anonymous page that went to the default pager.
			if k.DefaultMgr == nil {
				return nil, false, fmt.Errorf("vm: %v page %d paged out with no default pager", cur.ID, idx)
			}
			return nil, false, k.sendDataRequestTo(p, k.DefaultMgr, cur, idx, ProtRead)
		}
	}
	// Chain exhausted: zero fill in the faulted object.
	p.Sleep(k.Costs.PageZero)
	if obj.Pages[idx] != nil {
		return nil, false, nil // raced with someone else's fill; retry
	}
	k.Ctr.V[sim.CtrZeroFills]++
	pg := k.InstallPage(obj, idx, nil, ProtWrite)
	if want == ProtWrite {
		if obj.Mgr == nil && obj.NeedsPush(idx) {
			k.localPush(p, obj, idx, pg)
		}
		pg.Dirty = true
	}
	p.Sleep(k.Costs.PmapEnter)
	return pg, true, nil
}

// faultTopHit handles a resident page in the faulted object itself.
func (k *Kernel) faultTopHit(p *sim.Proc, obj *Object, idx PageIdx, pg *Page, want Prot) (*Page, bool, error) {
	if pg.Lock.Allows(want) {
		if want == ProtWrite {
			if obj.Mgr == nil && obj.NeedsPush(idx) {
				k.localPush(p, obj, idx, pg)
			}
			pg.Dirty = true
		}
		k.touch(pg)
		p.Sleep(k.Costs.PmapEnter)
		return pg, true, nil
	}
	// Insufficient lock: ask the manager for an upgrade.
	if obj.Mgr == nil {
		// Anonymous memory is never lock-restricted by anyone else.
		pg.Lock = want
		return nil, false, nil
	}
	return nil, false, k.sendDataUnlock(p, obj, idx, want)
}

// faultShadowHit handles a page found in a shadow object below the faulted
// one.
func (k *Kernel) faultShadowHit(p *sim.Proc, obj, src *Object, idx PageIdx, pg *Page, want Prot) (*Page, bool, error) {
	if want == ProtRead {
		if !pg.Lock.Allows(ProtRead) {
			// The source page is lock-restricted (e.g. mid-push); upgrade
			// through its manager, then retry.
			if src.Mgr == nil {
				pg.Lock = ProtRead
				return nil, false, nil
			}
			return nil, false, k.sendDataUnlock(p, src, idx, ProtRead)
		}
		// Map the source page directly — no copy (paper §2.2: pages
		// retrieved through a shadow link on a read fault are not copied).
		k.touch(pg)
		p.Sleep(k.Costs.PmapEnter)
		return pg, true, nil
	}
	// Write fault: copy the page up into the faulted object (copy on
	// write).
	p.Sleep(k.Costs.PageCopy)
	if obj.Pages[idx] != nil || !src.Resident(idx) {
		return nil, false, nil // raced; retry
	}
	k.Ctr.V[sim.CtrCowCopies]++
	// Re-read the source: pg may have been replaced during the sleep.
	newPg := k.InstallPage(obj, idx, src.Pages[idx].Data, ProtWrite)
	if obj.Mgr == nil && obj.NeedsPush(idx) {
		k.localPush(p, obj, idx, newPg)
	}
	newPg.Dirty = true
	p.Sleep(k.Costs.PmapEnter)
	return newPg, true, nil
}

// interposeShadow implements the symmetric copy strategy's write-fault
// interposition: the map entry's object is replaced by a fresh object
// shadowing the original.
func (k *Kernel) interposeShadow(entry *Entry) {
	orig := entry.Object
	sh := k.NewObject(k.NextID(), orig.SizePages, nil, CopySymmetric)
	sh.Shadow = orig
	entry.Object = sh
	entry.NeedsCopy = false
	orig.MapRefs--
	sh.MapRefs++
	k.Ctr.V[sim.CtrShadowInterpose]++
}

// localPush implements the asymmetric copy strategy's push for unmanaged
// objects: before the page is modified, its current contents are inserted
// into the newest copy object (if absent) and the page version stamped.
func (k *Kernel) localPush(p *sim.Proc, obj *Object, idx PageIdx, pg *Page) {
	cp := obj.Copy
	if cp == nil {
		return
	}
	if !cp.Resident(idx) {
		p.Sleep(k.Costs.PageCopy)
		k.Ctr.V[sim.CtrLocalPushes]++
		k.InstallPage(cp, idx, pg.Data, ProtWrite)
	}
	obj.MarkPushed(idx)
}

// ---------------------------------------------------------------------------
// Outbound EMMI (kernel -> manager)

func (k *Kernel) sendDataRequest(p *sim.Proc, o *Object, idx PageIdx, want Prot) error {
	return k.sendDataRequestTo(p, o.Mgr, o, idx, want)
}

func (k *Kernel) sendDataRequestTo(p *sim.Proc, mgr MemoryManager, o *Object, idx PageIdx, want Prot) error {
	req := k.newPendingReq(want)
	o.pending[idx] = req
	k.Ctr.V[sim.CtrDataRequests]++
	p.Sleep(k.Costs.EMMILocal)
	mgr.DataRequest(o, idx, want)
	return k.waitPending(p, req)
}

func (k *Kernel) sendDataUnlock(p *sim.Proc, o *Object, idx PageIdx, want Prot) error {
	if req := o.pending[idx]; req != nil {
		return k.waitPending(p, req)
	}
	req := k.newPendingReq(want)
	o.pending[idx] = req
	k.Ctr.V[sim.CtrDataUnlocks]++
	p.Sleep(k.Costs.EMMILocal)
	o.Mgr.DataUnlock(o, idx, want)
	return k.waitPending(p, req)
}

// completePending wakes fault procs waiting on (o, idx).
func (k *Kernel) completePending(o *Object, idx PageIdx) {
	if req := o.pending[idx]; req != nil {
		delete(o.pending, idx)
		req.future.Set(nil)
	}
}

// HasPending reports whether a data request/unlock is outstanding for the
// page (used by managers to coalesce).
func (k *Kernel) HasPending(o *Object, idx PageIdx) bool {
	return o.pending[idx] != nil
}

// ---------------------------------------------------------------------------
// Inbound EMMI control (manager -> kernel)

// DataSupply provides page contents with the given lock
// (memory_object_data_supply). With push=true — the paper's added "mode"
// argument — the page is pushed down the local copy chain instead of being
// entered into the source object.
func (k *Kernel) DataSupply(o *Object, idx PageIdx, data []byte, lock Prot, push bool) {
	k.Ctr.V[sim.CtrDataSupplies]++
	if push {
		k.pushSupply(o, idx, data)
		return
	}
	// Note: a PagedOut marker is deliberately kept — the pager's copy stays
	// valid until the page is dirtied again, so a clean re-eviction can
	// simply drop the frame.
	if pg := o.Pages[idx]; pg != nil {
		// Already resident (e.g. raced with a local zero fill): treat as a
		// lock delivery.
		if lock > pg.Lock {
			pg.Lock = lock
		}
		if k.TrackData && data != nil && pg.Data != nil {
			copy(pg.Data, data)
		}
		k.completePending(o, idx)
		return
	}
	k.InstallPage(o, idx, data, lock)
	k.completePending(o, idx)
}

// pushSupply inserts supplied data into the newest copy of o (paper
// §3.7.2: the data_supply "mode" that pushes down the copy chain).
func (k *Kernel) pushSupply(o *Object, idx PageIdx, data []byte) {
	cp := o.Copy
	if cp == nil {
		return
	}
	if !cp.Resident(idx) {
		k.InstallPage(cp, idx, data, ProtWrite)
		k.Ctr.V[sim.CtrPushSupplies]++
		k.completePending(cp, idx)
	}
	o.MarkPushed(idx)
}

// DataUnavailable tells the kernel the manager has no data for the page:
// it may be zero-filled with the given lock.
func (k *Kernel) DataUnavailable(o *Object, idx PageIdx, lock Prot) {
	k.Ctr.V[sim.CtrDataUnavailable]++
	if o.Pages[idx] == nil {
		k.Ctr.V[sim.CtrZeroFills]++
		k.InstallPage(o, idx, nil, lock)
	}
	k.completePending(o, idx)
}

// LockGrant raises the page lock (positive lock_request); it completes
// pending unlock waits.
func (k *Kernel) LockGrant(o *Object, idx PageIdx, lock Prot) {
	if pg := o.Pages[idx]; pg != nil && lock > pg.Lock {
		pg.Lock = lock
	}
	k.completePending(o, idx)
}

// LockRequest restricts the page lock (memory_object_lock_request). With
// newLock == ProtNone the page is flushed. pushFirst is the paper's added
// "mode" argument: push the page down the local copy chain before locking.
// done — the paper's extended lock_completed "result" — reports whether the
// page was present (a requested push that finds no resident page returns
// present=false so the caller can fetch the page and push via DataSupply).
// Flushed dirty pages are handed to the object's manager via DataReturn.
func (k *Kernel) LockRequest(o *Object, idx PageIdx, newLock Prot, pushFirst bool, done func(present bool)) {
	pg := o.Pages[idx]
	if pg == nil || pg.Evicting {
		if done != nil {
			done(false)
		}
		return
	}
	if pushFirst {
		if cp := o.Copy; cp != nil && !cp.Resident(idx) {
			k.InstallPage(cp, idx, pg.Data, ProtWrite)
			k.Ctr.V[sim.CtrPushLocks]++
		}
		o.MarkPushed(idx)
	}
	if newLock == ProtNone {
		// The manager sees the page gone, its contents intact until it returns.
		data := pg.Data
		pg.Data = nil
		k.RemovePage(o, idx)
		if pg.Dirty && o.Mgr != nil {
			o.Mgr.DataReturn(o, idx, data, true, false)
		}
		PutPageBuf(data)
	} else if newLock < pg.Lock {
		if pg.Dirty && newLock < ProtWrite && o.Mgr != nil {
			// Downgrading a dirty page cleans it through the manager.
			o.Mgr.DataReturn(o, idx, pg.Data, true, true)
			pg.Dirty = false
		}
		pg.Lock = newLock
	}
	if done != nil {
		done(true)
	}
}

// PullRequest traverses the local shadow chain *below* o looking for the
// page (memory_object_pull_request, paper §3.7.1/§3.7.3). Outcomes:
// PullData with the contents, PullAskManager with the first managed shadow
// object encountered, or PullZeroFill when the chain ends.
func (k *Kernel) PullRequest(o *Object, idx PageIdx, done func(res PullResult, data []byte, shadow *Object)) {
	k.Ctr.V[sim.CtrPullRequests]++
	for cur := o.Shadow; cur != nil; cur = cur.Shadow {
		if pg := cur.Pages[idx]; pg != nil && !pg.Evicting {
			k.touch(pg)
			done(PullData, pg.Data, nil)
			return
		}
		if cur.Mgr != nil {
			done(PullAskManager, nil, cur)
			return
		}
		if cur.PagedOut[idx] {
			// The page exists but is on the default pager; treat the
			// default pager as the manager to ask.
			done(PullAskManager, nil, cur)
			return
		}
	}
	done(PullZeroFill, nil, nil)
}
