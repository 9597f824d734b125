package asvm

import (
	"asvm/internal/sim"
	"fmt"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/pager"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// fifoCache is a bounded insertion-order FIFO map from page to V: both
// forwarding caches are one — the dynamic owner hints (Figure 6) and the
// static managers' owner hints and "paged" markers. A Put that refreshes a
// key keeps its FIFO slot. Deleting a key tombstones its slot by
// generation: a deleted-then-readmitted page gets a fresh slot and a fresh
// generation, so stale slots never evict a live entry early. Tombstones
// are compacted away once they outnumber the capacity. A cache holds
// nothing until its first Put.
type fifoCache[V any] struct {
	max   int
	m     map[vm.PageIdx]fifoEntry[V]
	order []fifoSlot
	dead  int
	gen   uint64
}

// fifoEntry is a live value plus the generation of its FIFO slot.
type fifoEntry[V any] struct {
	v   V
	gen uint64
}

// fifoSlot records the insertion order; it is stale once the page was
// deleted or readmitted under a newer generation.
type fifoSlot struct {
	idx vm.PageIdx
	gen uint64
}

// fifoFirstCap is the FIFO order's capacity at a cache's first Put.
const fifoFirstCap = 64

func newFIFOCache[V any](capacity int) fifoCache[V] {
	return fifoCache[V]{max: max(capacity, 1)}
}

// Get looks up a page's entry.
func (c *fifoCache[V]) Get(idx vm.PageIdx) (V, bool) {
	e, ok := c.m[idx]
	return e.v, ok
}

// Put inserts or refreshes an entry, evicting the oldest live one when full.
func (c *fifoCache[V]) Put(idx vm.PageIdx, v V) {
	if e, exists := c.m[idx]; exists {
		c.m[idx] = fifoEntry[V]{v: v, gen: e.gen}
		return
	}
	if len(c.m) >= c.max {
		for {
			s := c.order[0]
			c.order = c.order[1:]
			if e, ok := c.m[s.idx]; ok && e.gen == s.gen {
				delete(c.m, s.idx)
				break
			}
			c.dead-- // skipped a tombstone
		}
	}
	if c.m == nil {
		// A cache in use holds many pages: skip append's first doublings.
		c.m = make(map[vm.PageIdx]fifoEntry[V])
		c.order = make([]fifoSlot, 0, min(c.max, fifoFirstCap))
	}
	c.gen++
	c.m[idx] = fifoEntry[V]{v: v, gen: c.gen}
	c.order = append(c.order, fifoSlot{idx: idx, gen: c.gen})
}

// Delete removes an entry; its FIFO slot becomes a tombstone.
func (c *fifoCache[V]) Delete(idx vm.PageIdx) {
	if _, ok := c.m[idx]; ok {
		delete(c.m, idx)
		c.tombstone(1)
	}
}

// DeleteFunc removes every entry drop selects — a peer-down scrub drops
// the hints at the dead node — and returns how many it removed. Their FIFO
// slots become tombstones exactly as in Delete.
func (c *fifoCache[V]) DeleteFunc(drop func(V) bool) int {
	n := 0
	for idx, e := range c.m {
		if drop(e.v) {
			delete(c.m, idx)
			n++
		}
	}
	c.tombstone(n)
	return n
}

// tombstone counts n stale slots, compacting once they outnumber max.
func (c *fifoCache[V]) tombstone(n int) {
	c.dead += n
	if c.dead > c.max {
		c.compact()
	}
}

// compact drops stale slots so order stays O(live + max).
func (c *fifoCache[V]) compact() {
	live := c.order[:0]
	for _, s := range c.order {
		if e, ok := c.m[s.idx]; ok && e.gen == s.gen {
			live = append(live, s)
		}
	}
	c.order = live
	c.dead = 0
}

// Len reports the live entry count.
func (c *fifoCache[V]) Len() int { return len(c.m) }

// ---------------------------------------------------------------------------
// The request redirector

// homeRetryDelay paces re-forwarding when an in-flight ownership transfer
// makes a page momentarily ownerless.
const homeRetryDelay = 300 * time.Microsecond

// forward implements the layered redirector: owner short-circuit, request
// combining, dynamic hints, static managers, global ring scan, and finally
// the home/pager (paper §3.4). Requests arriving on the transport enter
// through the EvAccessReq dispatch; forward is the internal re-entry point
// for chasing, retries and locally generated requests.
func (in *Instance) forward(req accessReq) {
	self := in.self()
	// Owner short-circuit: the request has arrived.
	if in.State(req.Idx).Owner() {
		in.handleAsOwner(req)
		return
	}
	// Home-directed requests go straight to the resolution logic — they
	// must not re-enter hint chasing or scan escalation.
	if req.ForHome {
		req.ForHome = false
		if in.info.Home == self {
			in.handleAtHome(req)
			return
		}
		// Stale routing (home moved? never happens today); fall through.
	}
	// Note: requests are never parked at a node that is itself waiting for
	// a grant — holding them would form circular waits between concurrent
	// writers. They keep chasing hints; the hop limit, ring scan and paced
	// home retry below bound the chase.
	if req.Scanning {
		in.continueScan(req)
		return
	}
	cfg := in.info.Cfg
	if req.Hops > 2*len(in.info.Mapping)+8 {
		// Hint chasing has gone on too long: escalate to the ring scan,
		// which terminates deterministically.
		in.nd.Ctr.V[sim.CtrHopEscalations]++
		in.startScan(req)
		return
	}
	if cfg.DynamicForwarding {
		if h, ok := in.dyn.Get(req.Idx); ok && h != self && h != req.LastFrom {
			in.nd.Ctr.V[sim.CtrFwdDynamic]++
			in.sendReq(h, req)
			return
		}
	}
	if cfg.StaticForwarding {
		sm := in.info.staticNode(req.Idx)
		if sm == self {
			in.forwardAtStatic(req)
			return
		}
		if sm != req.LastFrom {
			in.nd.Ctr.V[sim.CtrFwdStatic]++
			in.sendReq(sm, req)
			return
		}
	}
	if in.info.Home == self {
		in.handleAtHome(req)
		return
	}
	in.startScan(req)
}

// forwardAtStatic consults the static ownership cache on the page's static
// manager node.
func (in *Instance) forwardAtStatic(req accessReq) {
	if e, ok := in.static.Get(req.Idx); ok {
		if e.paged {
			// "paged" hint: straight to the pager's node, skipping the
			// global scan (paper §3.4).
			in.nd.Ctr.V[sim.CtrStaticPagedHits]++
			in.toHome(req)
			return
		}
		if e.owner != in.self() && e.owner != req.LastFrom {
			in.nd.Ctr.V[sim.CtrStaticOwnerHits]++
			in.sendReq(e.owner, req)
			return
		}
	}
	// Miss: the home node authoritatively resolves fresh/paged/granted
	// (absence here means "fresh" for never-touched pages, and the home
	// confirms).
	in.nd.Ctr.V[sim.CtrStaticMisses]++
	in.toHome(req)
}

func (in *Instance) toHome(req accessReq) {
	if in.info.Home == in.self() {
		in.handleAtHome(req)
		return
	}
	req.ForHome = true
	in.sendReq(in.info.Home, req)
}

// startScan begins the global-forwarding ring walk from this node.
func (in *Instance) startScan(req accessReq) {
	in.nd.Ctr.V[sim.CtrFwdGlobal]++
	req.Scanning = true
	req.ScanStart = in.self()
	in.continueScan(req)
}

// continueScan passes the request around the mapping ring; a full circle
// with no owner ends at the home/pager.
func (in *Instance) continueScan(req accessReq) {
	in.continueScanFrom(in.ringPos, req)
}

// continueScanFrom advances the ring walk from an arbitrary ring position —
// the node's own for a normal hop, an unreachable member's when a NACK
// skips over it.
func (in *Instance) continueScanFrom(pos int, req accessReq) {
	next := in.info.ringAfter(pos)
	if next == req.ScanStart {
		// Full circle: no owner anywhere.
		req.Scanning = false
		req.ScannedAll = true
		in.toHome(req)
		return
	}
	in.nd.Ctr.V[sim.CtrRingScanHops]++
	in.sendReq(next, req)
}

// actReqNack resumes a request that bounced off a dead node, whatever our
// own page state is — we may even own the page by now and serve it.
// (nackResume)
func actReqNack(in *Instance, idx vm.PageIdx, m interface{}) {
	nk := m.(xport.Nack)
	in.handleReqNack(nk.Dst, *nk.Msg.(*accessReq))
}

// handleReqNack resumes a request whose forwarding hop bounced off a dead
// node: drop the stale hint and fall back down the dynamic → static →
// global chain (the paper's own degradation path). The home node has no
// fallback — it is the domain's serialization point — so a home bounce
// degrades to a typed failure at the origin instead of a panic.
func (in *Instance) handleReqNack(dead mesh.NodeID, req accessReq) {
	in.nd.Ctr.V[sim.CtrReqNacks]++
	if req.ForHome {
		in.homeUnreachable(dead, req)
		return
	}
	if h, ok := in.dyn.Get(req.Idx); ok && h == dead {
		in.dyn.Delete(req.Idx)
	}
	if req.Scanning {
		// The ring walk hit the unreachable member: continue past it as if
		// it had forwarded the request onward.
		if pos := in.info.mappingIndex(dead); pos >= 0 {
			in.continueScanFrom(pos, req)
			return
		}
		req.Scanning = false
	}
	req.LastFrom = dead
	in.forward(req)
}

// homeUnreachable resolves a request whose home — the domain's
// serialization point — is down (crash-stop degradation). A push scan is
// answered "no owner" so the pusher installs locally; an access or pull
// fails typed: locally when this node is the origin, else with an
// Unavailable grant carrying the dead home's ID.
func (in *Instance) homeUnreachable(dead mesh.NodeID, req accessReq) {
	if req.ReqKind == kindPushScan {
		in.send(req.Origin, &pushScanAck{SrcObj: req.Target, Idx: req.Idx, Found: false})
		return
	}
	if req.Origin == in.self() {
		if tin := in.nd.instances[req.Target]; tin != nil {
			tin.failFault(req.Idx, &vm.ErrObjectUnavailable{Node: dead, Obj: req.Target, Page: req.Idx})
		}
		return
	}
	in.sendGrant(req.Origin, grantMsg{Obj: req.Target, Idx: req.Idx, Unavailable: true, From: dead})
}

func (in *Instance) sendReq(to mesh.NodeID, req accessReq) {
	req.Hops++
	req.LastFrom = in.self()
	if in.nd.Trace.on {
		in.trace("t fwd: node %d sends %v p%d req (origin=%d want=%v forHome=%v scan=%v hops=%d) to %d",
			in.self(), req.Target, req.Idx, req.Origin, req.Want, req.ForHome, req.Scanning, req.Hops, to)
	}
	if req.Hops > 10000 {
		panic(fmt.Sprintf("asvm: forwarding livelock for %v page %d", req.Obj, req.Idx))
	}
	in.send(to, in.nd.pools.req.Get(req))
}

// handleAtHome resolves requests for pages with no owner: from the pager,
// by zero fill, or — for copy domains — by pulling through the local
// shadow chain (the home of a copy domain is its peer node).
func (in *Instance) handleAtHome(req accessReq) {
	if in.info.Home != in.self() {
		panic(fmt.Sprintf("asvm: handleAtHome on node %d, home is %d", in.self(), in.info.Home))
	}
	hs := in.slot(req.Idx)
	if req.ReqKind == kindPushScan {
		in.homePushScan(req, hs)
		return
	}
	if hs.home.granted() {
		// An owner exists (or a grant is in flight) but forwarding missed
		// it. Chase the freshest hint; without one, walk the whole ring;
		// if even that failed, the ownership transfer is in flight — pace
		// a retry.
		if h, ok := in.dyn.Get(req.Idx); ok && h != in.self() && h != req.LastFrom {
			in.sendReq(h, req)
			return
		}
		if !req.ScannedAll {
			in.startScan(req)
			return
		}
		in.nd.Ctr.V[sim.CtrHomeRetries]++
		retry := req
		retry.Scanning = false
		retry.ScannedAll = false
		retry.Hops = 0
		in.nd.Eng.Schedule(homeRetryDelay, func() { in.forward(retry) })
		return
	}
	if in.info.Source != nil {
		// Copy domain: resolve through the local shadow chain (pull).
		in.pullLocal(req, hs)
		return
	}
	// Pager-backed or anonymous domain.
	hs.home = homeGranted
	in.dyn.Put(req.Idx, req.Origin)
	in.homePagerIn(req.Idx, in.homeOp(req))
}

// homeGrant answers a request resolved at the home with what the backing
// store holds: its contents, or zero-fill permission.
func (in *Instance) homeGrant(req accessReq, data []byte, found bool) {
	if found {
		in.nd.Ctr.V[sim.CtrHomePagerSupplies]++
		in.sendGrant(req.Origin, grantMsg{
			Obj: req.Target, Idx: req.Idx, Lock: req.Want,
			Data: copyData(data), HasData: true, Ownership: true,
			AtPagerCopy: true, From: in.self(),
		})
		return
	}
	in.nd.Ctr.V[sim.CtrHomeFreshGrants]++
	if in.nd.Trace.on {
		in.trace("t fresh: home %d fresh-grants %v p%d to %d", in.self(), in.info.ID, req.Idx, req.Origin)
	}
	in.sendGrant(req.Origin, grantMsg{
		Obj: req.Target, Idx: req.Idx, Lock: req.Want,
		Fresh: true, Ownership: true, From: in.self(),
	})
}

// homeParked records a page-out at the home: the contents are at the
// backing store and no owner remains.
func (in *Instance) homeParked(idx vm.PageIdx) {
	in.slot(idx).home = homeAtPager
	in.announcePaged(idx)
}

// homeOp is one home backing-store operation in flight, and its typed
// completion: the pager client (or, without a pager, the engine) calls it
// back with the request it serves. Each node keeps a free list of them, so
// a page-in or page-out at the home allocates nothing.
type homeOp struct {
	in   *Instance
	req  accessReq   // a page-in: the request it answers; a page-out: its page
	park bool        // a page-out of another node's eviction (toPager)
	from mesh.NodeID // park: the evicting node to ack
	seq  uint64      // park: its pageout's sequence number
}

// homeOp takes an operation for req from the node's free list.
func (in *Instance) homeOp(req accessReq) *homeOp {
	return in.nd.homeOps.Get(homeOp{in: in, req: req})
}

// PageInDone implements pager.PageInDone.
func (h *homeOp) PageInDone(_ vm.ObjID, _ vm.PageIdx, data []byte, found bool) {
	in, req := h.in, h.req
	in.nd.homeOps.Put(h)
	in.homeGrant(req, data, found)
}

// PageOutDone implements pager.PageOutDone: the home's own eviction
// finishes, another node's is acked.
func (h *homeOp) PageOutDone(vm.ObjID, vm.PageIdx) {
	in, idx, park, from, seq := h.in, h.req.Idx, h.park, h.from, h.seq
	in.nd.homeOps.Put(h)
	in.homeParked(idx)
	if !park {
		in.evictFinish(idx, -1)
		return
	}
	in.send(from, &toPagerAck{Obj: in.info.ID, Idx: idx, Seq: seq})
}

// Run implements sim.Runnable: a page-out the home completes without the
// pager (clean contents, or the in-memory parking store).
func (h *homeOp) Run() { h.PageOutDone(h.in.info.ID, h.req.Idx) }

// homePagerIn fetches backing contents at the home: from the pager if one
// is configured, else from the in-memory parking store.
func (in *Instance) homePagerIn(idx vm.PageIdx, done pager.PageInDone) {
	if in.pagerCli != nil {
		in.pagerCli.PageIn(in.info.ID, idx, done)
		return
	}
	data, ok := in.store[idx]
	in.nd.Eng.Schedule(0, func() { done.PageInDone(in.info.ID, idx, data, ok) })
}

// homePagerOut stores contents at the home's backing store and completes
// h when they are stable.
func (in *Instance) homePagerOut(data []byte, h *homeOp) {
	if in.pagerCli != nil {
		in.pagerCli.PageOut(in.info.ID, h.req.Idx, data, true, h)
		return
	}
	buf := copyData(data)
	if buf == nil {
		buf = []byte{} // metadata-only run: remember existence
	}
	if in.store == nil {
		in.store = make(map[vm.PageIdx][]byte)
	}
	in.store[h.req.Idx] = buf
	in.nd.Eng.ScheduleRun(0, h)
}
