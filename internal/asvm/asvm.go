// Package asvm implements the paper's contribution: the Advanced Shared
// Virtual Memory system. Each page has a dynamic distributed manager — its
// *owner*, the node that most recently had write access — found through a
// layered request redirector (dynamic owner-hint caches, static hash-
// distributed ownership managers, global ring scan). Physical memory of all
// mapping nodes forms a cache for each memory object (internode paging),
// and the asymmetric delayed-copy strategy is extended across nodes with
// version-counted pushes, push scans and shadow-chain pulls. All state
// transitions are asynchronous: no kernel thread ever blocks inside the
// protocol. Traffic rides the dedicated STS transport.
package asvm

import (
	"fmt"

	"asvm/internal/mesh"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// Config tunes the forwarding machinery (paper §3.4 allows disabling
// dynamic and/or static forwarding per memory object).
type Config struct {
	// DynamicForwarding enables per-node owner-hint caches.
	DynamicForwarding bool
	// StaticForwarding enables the hash-distributed ownership managers.
	StaticForwarding bool
	// DynamicCacheSize bounds each node's dynamic hint cache (entries).
	DynamicCacheSize int
	// StaticCacheSize bounds each static manager's cache (entries).
	StaticCacheSize int

	// HopBound caps how many forwarding hops a request may take before it
	// escalates to the deterministic ring scan. 0 means the legacy
	// adaptive bound 2*len(Mapping)+8 — fine at paper scale, but at 1024
	// nodes that lets a hint storm burn ~2k hops before tripping, so
	// scale runs set an absolute bound instead.
	HopBound int

	// DisableInternodePaging skips eviction steps 2 and 3 (ownership
	// transfer to readers, page transfer to free nodes): evicted owner
	// pages go straight to the pager. Ablation A3.
	DisableInternodePaging bool
}

// DefaultConfig enables everything with generous caches.
func DefaultConfig() Config {
	return Config{
		DynamicForwarding: true,
		StaticForwarding:  true,
		DynamicCacheSize:  4096,
		StaticCacheSize:   16384,
	}
}

// pageOfferReserve is the minimum free pages a node must keep to accept an
// internode page transfer.
const pageOfferReserve = 4

// Node is the per-node ASVM runtime.
type Node struct {
	Self mesh.NodeID
	Eng  *sim.Engine
	K    *vm.Kernel
	TR   xport.Transport
	Cfg  Config

	instances map[vm.ObjID]*Instance

	Ctr *sim.Counters

	// Trace is this node's bounded protocol trace sink.
	Trace *TraceBuf

	// MidCheck, when set, is invoked at every quiesce of a page's busy
	// window — the earliest points where the page's cross-node state is
	// supposed to be consistent again. The schedule explorer installs one
	// to run CheckPageInvariants mid-flight; production runs leave it nil.
	// The hook may be called on a proc goroutine (fault path), so it must
	// record findings rather than panic.
	MidCheck func(info *DomainInfo, idx vm.PageIdx)

	// Cover counts every dispatched protocol transition per (state, event)
	// table cell. The schedule explorer merges these across nodes and runs
	// to report which legal table entries a search exercised.
	Cover Coverage

	// Hooks re-enable known-bad behaviours for explorer mutation tests.
	// All false in production.
	Hooks struct {
		// DropXferReaders skips installing the reader list when accepting
		// an ownership transfer — the classic DSM bug where the new owner
		// forgets who holds read copies and never invalidates them.
		DropXferReaders bool

		// DropNackResume silently discards bounced requests instead of
		// re-entering the redirector — the classic crash-handling bug
		// where a fault whose hop died is never re-driven and waits
		// forever. The liveness checker's selftest plants this one.
		DropNackResume bool

		// DropFaultRedrive skips the conservative fault re-drive when a
		// peer is declared dead (actPeerDown) — the complementary
		// crash-handling bug: a request that died inside the crashed node
		// (queued at it, or its grant evaporating in flight) is never
		// re-sent. Planted together with DropNackResume this closes both
		// recovery paths, so a fault that depended on the dead node hangs
		// forever — the livelock the -live selftest must find.
		DropFaultRedrive bool
	}

	// crashEra is set once any crash or peer-down event has touched this
	// node's cluster. It relaxes the stray-completion panics — after a
	// crash, an ack from a dead node can legitimately arrive after the
	// failure machinery already completed its slot. Never set in a
	// crash-free run, so the strict panics keep their full force there.
	crashEra bool

	// pools are the free lists for the hot wire kinds, shared by every
	// node of the engine (msgPools).
	pools *msgPools
	// Free lists of this node's multi-step operations.
	homeOps  xport.Pool[homeOp]
	writeOps xport.Pool[writeOp]
}

// NewNode creates the ASVM runtime for one node and registers its
// transport handler.
func NewNode(eng *sim.Engine, k *vm.Kernel, tr xport.Transport, cfg Config) *Node {
	n := &Node{
		Self: k.Node, Eng: eng, K: k, TR: tr, Cfg: cfg,
		instances: make(map[vm.ObjID]*Instance),
		Ctr:       sim.NewCounters(),
		Trace:     &TraceBuf{},
		pools:     eng.Local(msgPoolsKey{}, func() any { return new(msgPools) }).(*msgPools),
	}
	tr.Register(n.Self, Proto, n.handle)
	return n
}

// Instance returns this node's instance of a domain, or nil.
func (n *Node) Instance(id vm.ObjID) *Instance { return n.instances[id] }

// Footprint returns this node's page-state memory for a domain in bytes,
// or 0 if it has no instance: its slot table's directory, 1 byte per page,
// plus 448 bytes per 8-slot chunk the protocol wrote here — beside the
// 1 byte × pages × nodes an XMM manager holds (xmm.(*Node).Footprint).
func (n *Node) Footprint(id vm.ObjID) int64 {
	if in := n.instances[id]; in != nil {
		return in.slots.bytes()
	}
	return 0
}

func (n *Node) inst(id vm.ObjID) *Instance {
	in := n.instances[id]
	if in == nil {
		panic(fmt.Sprintf("asvm: node %d has no instance of %v", n.Self, id))
	}
	return in
}

func (n *Node) handle(src mesh.NodeID, m interface{}) {
	n.Ctr.V[sim.CtrMsgs]++
	env, ok := m.(xport.Msg)
	if !ok {
		if nk, isNack := m.(xport.Nack); isNack {
			n.handleNack(nk)
			return
		}
		panic(fmt.Sprintf("asvm: unknown message %T", m))
	}
	// Dispatch on the envelope's small-int kind: a jump table instead of a
	// chain of per-type comparisons. The concrete assertion in each arm is
	// then unconditional (a mismatched Kind is a construction bug). Each
	// arm feeds the page's state machine, passing the already-boxed m
	// through so the hot path re-boxes nothing. Every kind travels as a
	// pointer, and actions copy the value out, never the interface: a box
	// is dead once dispatch returns, and the hot kinds' boxes go back to
	// their free lists.
	switch env.Kind() {
	case msgAccessReq:
		msg := m.(*accessReq)
		n.inst(msg.Obj).dispatch(EvAccessReq, msg.Idx, m)
		n.pools.req.Put(msg)
	case msgGrant:
		msg := m.(*grantMsg)
		n.inst(msg.Obj).dispatch(EvGrant, msg.Idx, m)
		vm.PutPageBuf(msg.Data)
		n.pools.grant.Put(msg)
	case msgInval:
		msg := m.(*invalMsg)
		n.inst(msg.Obj).dispatch(EvInval, msg.Idx, m)
		n.pools.inval.Put(msg)
	case msgInvalAck:
		msg := m.(*invalAck)
		n.inst(msg.Obj).dispatch(EvInvalAck, msg.Idx, m)
		n.pools.iack.Put(msg)
	case msgOwnerUpdate:
		msg := m.(*ownerUpdate)
		n.inst(msg.Obj).dispatch(EvOwnerUpdate, msg.Idx, m)
		n.pools.oupd.Put(msg)
	case msgOwnerXfer:
		msg := m.(*ownerXfer)
		n.inst(msg.Obj).dispatch(EvOwnerXfer, msg.Idx, m)
	case msgOwnerXferAck:
		msg := m.(*ownerXferAck)
		n.inst(msg.Obj).dispatch(EvOwnerXferAck, msg.Idx, m)
	case msgPageOffer:
		msg := m.(*pageOffer)
		n.inst(msg.Obj).dispatch(EvPageOffer, msg.Idx, m)
		vm.PutPageBuf(msg.Data) // like a box's, the offer's page is dead after dispatch
	case msgPageOfferAck:
		msg := m.(*pageOfferAck)
		n.inst(msg.Obj).dispatch(EvPageOfferAck, msg.Idx, m)
	case msgToPager:
		msg := m.(*toPager)
		n.inst(msg.Obj).dispatch(EvToPager, msg.Idx, m)
	case msgToPagerAck:
		msg := m.(*toPagerAck)
		n.inst(msg.Obj).dispatch(EvToPagerAck, msg.Idx, m)
	case msgPushScanAck:
		msg := m.(*pushScanAck)
		n.inst(msg.SrcObj).dispatch(EvPushScanAck, msg.Idx, m)
	default:
		panic(fmt.Sprintf("asvm: unknown message kind %d (%T)", env.Kind(), m))
	}
}

// handleNack routes a transport bounce — the destination node has no ASVM
// runtime, or the reliability layer declared it dead — back into the
// protocol. Every protocol message has a typed degradation here: requests
// fall back down the redirector chain, owner hints are best-effort and
// simply dropped, a grant's bounced authority is reclaimed or declared
// lost, a bounced invalidation or transfer completes as if the dead node
// had answered, and a bounced pageout counts its page lost. Only an
// unknown message type still panics.
func (n *Node) handleNack(nk xport.Nack) {
	n.Ctr.V[sim.CtrNacks]++
	switch msg := nk.Msg.(type) {
	case *accessReq:
		if !n.Hooks.DropNackResume {
			n.inst(msg.Obj).dispatch(EvReqNack, msg.Idx, nk)
		}
		n.pools.req.Put(msg)
	case *ownerUpdate:
		// A hint refresh for an unreachable static manager: lose the hint,
		// requests will fall through to the home instead.
		n.Ctr.V[sim.CtrHintNacks]++
		n.pools.oupd.Put(msg)
	case *grantMsg:
		n.nackGrant(nk.Dst, *msg)
		vm.PutPageBuf(msg.Data)
		n.pools.grant.Put(msg)
	case *invalMsg:
		// The reader we were invalidating is dead: it holds no copy any
		// more, which is exactly what the invalidation wanted.
		if in := n.instances[msg.Obj]; in != nil {
			in.completeInvalTarget(msg.Seq, nk.Dst)
		}
		n.pools.inval.Put(msg)
	case *invalAck:
		// Our ack to a dead invalidator: nothing left to confirm.
		n.pools.iack.Put(msg)
	case *ownerXfer:
		// The reader we offered ownership to is dead: treat as declined.
		if in := n.instances[msg.Obj]; in != nil {
			in.completeWait(msg.Seq, waitXfer, false)
		}
	case *pageOffer:
		// The node we offered the page to is dead: treat as declined.
		if in := n.instances[msg.Obj]; in != nil {
			in.completeWait(msg.Seq, waitXfer, false)
		}
		vm.PutPageBuf(msg.Data)
	case *toPager:
		// The home is down: the evicted contents have nowhere to go. The
		// data is gone (crash-stop) — count the loss and finish the
		// eviction. A bounced Lost report loses nothing new.
		if in := n.instances[msg.Obj]; in != nil {
			if msg.Dirty && !msg.Lost {
				n.Ctr.V[sim.CtrPagesLost]++
			}
			in.completeWait(msg.Seq, waitPgr, true)
		}
	case *ownerXferAck, *pageOfferAck, *toPagerAck, *pushScanAck:
		// An ack addressed to a dead requester: drop.
	default:
		panic(fmt.Sprintf("asvm: %T bounced off node %d", nk.Msg, nk.Dst))
	}
}

// DomainInfo is the cluster-wide description of an ASVM-managed memory
// object. It is established at setup time (mapping registration carries no
// modelled cost; the paper's benchmarks exclude it too).
type DomainInfo struct {
	ID        vm.ObjID
	SizePages vm.PageIdx

	// Home is the node that speaks for the pager: the pager's node for
	// pager-backed domains, the creating (peer) node for copy domains. It
	// is the serialization point for no-owner resolution.
	Home mesh.NodeID

	// Mapping lists the nodes with instances, in a fixed order used by
	// static hashing and the global ring scan.
	Mapping []mesh.NodeID

	// Version counts copies made from this domain (paper §3.7.2).
	Version uint64

	// Copy is the newest copy domain (pushes go there); Source is the
	// domain this one was copied from (pulls resolve through it at Home).
	Copy, Source *DomainInfo

	// Cfg is the per-object forwarding configuration.
	Cfg Config

	// Down marks mapping nodes currently crashed (crash-stop model). They
	// keep their ring position — scans skip them via the transport's Nack
	// path — and the invariant checker skips their (torn down) instances.
	// A restarting node is removed again by the rejoin path. Nil until the
	// first crash.
	Down map[mesh.NodeID]bool

	// mapIdx is the authoritative membership index: each node's position
	// in Mapping, built by NewDomain and extended by AddNode — the only two
	// paths that change Mapping, which only ever grows. Membership tests,
	// a NACKed scan's skip and crash scrubs are one map probe; a normal
	// ring hop reads the instance's own position (Instance.ringPos) and
	// probes nothing.
	mapIdx map[mesh.NodeID]int
}

// DomainSeqBase is where cluster-level domain IDs start: a cluster numbers
// its shared domains DomainSeqBase+1, +2, … above any kernel-local ID, so a
// mesh's one region and a simulated cluster's first region share an ID.
const DomainSeqBase = 1_000_000

// NewDomain is the one constructor of a domain's cluster-wide description,
// for simulated regions, the real mesh's region, promotions and copy
// domains alike. mapping is copied and fixes the ring order static hashing
// and ring scans use. No node holds an instance yet: each joins through
// AddNode, and the caller hands the home's instance its backing store with
// SetPager — a home without one zero-fills and parks page-outs in memory.
func NewDomain(id vm.ObjID, sizePages vm.PageIdx, home mesh.NodeID, mapping []mesh.NodeID, cfg Config) *DomainInfo {
	d := &DomainInfo{
		ID: id, SizePages: sizePages, Home: home, Cfg: cfg,
		Mapping: append([]mesh.NodeID(nil), mapping...),
	}
	d.rebuildMapIdx()
	return d
}

// staticNode returns the static ownership manager for a page.
func (d *DomainInfo) staticNode(idx vm.PageIdx) mesh.NodeID {
	return d.Mapping[int(idx)%len(d.Mapping)]
}

// mappingIndex returns a node's position in the mapping ring, or -1.
func (d *DomainInfo) mappingIndex(n mesh.NodeID) int {
	if i, ok := d.mapIdx[n]; ok {
		return i
	}
	return -1
}

// rebuildMapIdx reindexes Mapping into mapIdx.
func (d *DomainInfo) rebuildMapIdx() {
	d.mapIdx = make(map[mesh.NodeID]int, len(d.Mapping))
	for i, m := range d.Mapping {
		d.mapIdx[m] = i
	}
}

// ringAfter returns the mapping node after ring position pos.
func (d *DomainInfo) ringAfter(pos int) mesh.NodeID {
	if pos++; pos == len(d.Mapping) {
		pos = 0
	}
	return d.Mapping[pos]
}

// AddNode joins a node to a domain and returns its instance: every mapping
// node at setup, a remote fork's destination, a crashed node rejoining
// cold. A node already in the mapping ring keeps its position instead of
// appearing twice (a duplicate would skew static hashing and ring scans);
// one that already holds an instance gets that instance back.
func AddNode(info *DomainInfo, n *Node) *Instance {
	if in := n.instances[info.ID]; in != nil {
		return in
	}
	pos := info.mappingIndex(n.Self)
	if pos < 0 {
		pos = len(info.Mapping)
		info.Mapping = append(info.Mapping, n.Self)
		info.mapIdx[n.Self] = pos
	}
	return newInstance(n, info, pos)
}
