// Package xmm implements the NMK13 eXtended Memory Manager — the baseline
// the ASVM paper measures against. XMM interposes between each node's VM
// system and the external pager: one node runs the *centralized manager*
// holding all page state for a memory object; every other mapping node runs
// a forwarding *proxy*. All traffic rides NORMA-IPC.
//
// Deliberately modelled NMK13 behaviours (paper §2.3, §4.1):
//   - per-page state kept as a byte per page per mapping node at the
//     manager (the memory-consumption problem ASVM fixes);
//   - "create a coherent version at the pager, then forward": a dirty page
//     is written to paging space the first time another node requests it;
//   - sequentialized flush round trips before granting write access;
//   - delayed copy via local fork + XMM-internal copy pagers whose threads
//     block while resolving faults (the deadlock hazard on long chains).
package xmm

import (
	"fmt"

	"asvm/internal/mesh"
	"asvm/internal/pager"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// Node is the per-node XMM runtime: it owns the node's managers, proxies
// and copy pagers and dispatches incoming XMM traffic to them.
type Node struct {
	Self mesh.NodeID
	Eng  *sim.Engine
	K    *vm.Kernel
	TR   xport.Transport

	// CopyThreads bounds the copy pagers' kernel threads on this node; an
	// exhausted pool on a cyclic copy chain deadlocks, which is exactly
	// the failure mode ASVM's asynchronous state transitions avoid.
	CopyThreads *sim.Semaphore

	managers   map[vm.ObjID]*Manager
	proxies    map[vm.ObjID]*Proxy
	copyPagers map[uint64]*CopyPager
	copyObjs   map[uint64]*copyBinding
	nextPager  uint64
	pools      *pools

	Ctr *sim.Counters
}

// pools are the free lists of XMM's hot message kinds, one set per engine
// (xport.Pool): a proxy's request box is returned by the manager's node,
// the manager's supply and flush boxes by the proxies' nodes. Each box is
// recycled by its receiver once handle returns.
type pools struct {
	req    xport.Pool[accessReq]
	supply xport.Pool[supplyMsg]
	flush  xport.Pool[flushMsg]
	ack    xport.Pool[flushAck]
}

// poolsKey attaches the pools to an engine.
type poolsKey struct{}

// NewNode creates the XMM runtime for one node and registers its transport
// handler.
func NewNode(eng *sim.Engine, k *vm.Kernel, tr xport.Transport, copyThreads int) *Node {
	n := &Node{
		Self: k.Node, Eng: eng, K: k, TR: tr,
		CopyThreads: sim.NewSemaphore(eng, copyThreads),
		managers:    make(map[vm.ObjID]*Manager),
		proxies:     make(map[vm.ObjID]*Proxy),
		copyPagers:  make(map[uint64]*CopyPager),
		copyObjs:    make(map[uint64]*copyBinding),
		pools:       eng.Local(poolsKey{}, func() any { return new(pools) }).(*pools),
		Ctr:         sim.NewCounters(),
	}
	tr.Register(n.Self, Proto, n.handle)
	return n
}

func (n *Node) handle(src mesh.NodeID, m interface{}) {
	n.Ctr.V[sim.CtrMsgs]++
	// A switch on concrete types compiles to type-word comparisons: unlike
	// an assertion to xport.Msg, it never calls into the runtime, whose
	// per-site assertion caches allocate as they fill. The hot kinds travel
	// as pooled boxes, dead once their arm returns.
	switch msg := m.(type) {
	case *accessReq:
		mgr := n.managers[msg.Obj]
		if mgr == nil {
			panic(fmt.Sprintf("xmm: node %d is not manager of %v", n.Self, msg.Obj))
		}
		mgr.handleRequest(*msg)
		n.pools.req.Put(msg)
	case *supplyMsg:
		n.proxy(msg.Obj).handleSupply(msg)
		n.pools.supply.Put(msg)
	case *flushMsg:
		n.proxy(msg.Obj).handleFlush(msg)
		n.pools.flush.Put(msg)
	case *flushAck:
		n.managers[msg.Obj].handleFlushAck(msg)
		n.pools.ack.Put(msg)
	case copyReq:
		cp := n.copyPagers[msg.PagerID]
		if cp == nil {
			panic(fmt.Sprintf("xmm: no copy pager %d on node %d", msg.PagerID, n.Self))
		}
		cp.handleRequest(msg)
	case copyReply:
		n.copyObjs[msg.PagerID].handleReply(msg)
	default:
		panic(fmt.Sprintf("xmm: unknown message %T", m))
	}
}

func (n *Node) proxy(id vm.ObjID) *Proxy {
	p := n.proxies[id]
	if p == nil {
		panic(fmt.Sprintf("xmm: no proxy for %v on node %d", id, n.Self))
	}
	return p
}

// Cluster-level setup ---------------------------------------------------------

// SetupShared creates an XMM-managed shared memory object across the given
// nodes. The manager lives on the first node and reaches the backing store
// through io, which is required: one pager's client or a striped file's
// round-robin set, made on the manager's node (anonymous memory is a pager
// that has no contents yet). Returns the per-node vm objects, index aligned
// with nodes.
func SetupShared(id vm.ObjID, sizePages vm.PageIdx, nodes []*Node, io pager.PagerIO) []*vm.Object {
	mgrNode := nodes[0]
	mapping := make([]mesh.NodeID, len(nodes))
	for i, n := range nodes {
		mapping[i] = n.Self
	}
	mgr := newManager(mgrNode, id, sizePages, mapping, io)
	mgrNode.managers[id] = mgr

	objs := make([]*vm.Object, len(nodes))
	for i, n := range nodes {
		px := &Proxy{nd: n, mgrNode: mgrNode.Self, obj: id}
		n.proxies[id] = px
		o := n.K.NewObject(id, sizePages, px, vm.CopyNone)
		px.o = o
		objs[i] = o
	}
	return objs
}

// Footprint returns the manager's non-pageable page-state memory in bytes
// for a shared object (the paper's 1 byte × pages × nodes), or 0 if this
// node does not manage it.
func (n *Node) Footprint(id vm.ObjID) int64 {
	if mgr, ok := n.managers[id]; ok {
		return int64(mgr.sizePages) * int64(len(mgr.mapping))
	}
	return 0
}
