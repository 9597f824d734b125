package xmm

import (
	"fmt"
	"math/bits"

	"asvm/internal/mesh"
	"asvm/internal/pager"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

const noNode = mesh.NodeID(-1)

// Manager is the centralized manager for one memory object: it owns all
// page state ("1 byte of non-pageable memory per page per node"), enforces
// single-writer/multiple-readers by creating a coherent version at the
// pager, and forwards requests to the pager.
//
// Its tables are the paper's model: one entry per page, and per page one
// bit per mapping node in each of two bitset runs. A page serves one
// request at a time, and its entry is that request's stepper: the stage it
// waits in and the flush acks still due live in the entry, the pager's
// completions come back to the manager itself (pager.PageInDone and
// PageOutDone), and flush acks find their page by index — so a fault
// allocates nothing here.
type Manager struct {
	nd        *Node
	obj       vm.ObjID
	sizePages vm.PageIdx
	mapping   []mesh.NodeID
	io        pager.PagerIO

	pages    []mpage  // by page index
	readers  nodeSets // each page's read copies
	awaiting nodeSets // each page's nodes whose flush ack is due
	flushSeq uint64
}

// mpage is the manager's view of one page and the stepper of the request
// it serves.
type mpage struct {
	req    accessReq   // the request in service, while busy
	queue  []accessReq // requests waiting for it
	seq    uint64      // the current flush round's first sequence number
	sent   int32       // flushes in the round; their seqs are seq, seq+1, …
	acks   int32       // flush acks of the round still due
	writer mesh.NodeID
	busy   bool
	stage  uint8
}

// The stages a request waits in.
const (
	stIdle         uint8 = iota
	stFlushWriter        // the writer's flush ack is due
	stWriterOut          // the writer's dirty contents are going to the pager
	stFlushReaders       // the readers' flush acks are due
	stPagerIn            // the contents are coming from the pager
)

func newManager(nd *Node, obj vm.ObjID, sizePages vm.PageIdx, mapping []mesh.NodeID, io pager.PagerIO) *Manager {
	if io == nil {
		panic(fmt.Sprintf("xmm: object %v has no backing store", obj))
	}
	maxID := mesh.NodeID(0)
	for _, n := range mapping {
		maxID = max(maxID, n)
	}
	m := &Manager{
		nd: nd, obj: obj, sizePages: sizePages, mapping: mapping, io: io,
		pages:    make([]mpage, sizePages),
		readers:  newNodeSets(sizePages, int(maxID)+1),
		awaiting: newNodeSets(sizePages, int(maxID)+1),
	}
	for i := range m.pages {
		m.pages[i].writer = noNode
	}
	return m
}

// handleRequest serializes per-page operations: one request is processed at
// a time, the rest queue — the centralized bottleneck the paper measures.
func (m *Manager) handleRequest(req accessReq) {
	ps := &m.pages[req.Idx]
	if ps.busy {
		ps.queue = append(ps.queue, req)
		return
	}
	ps.busy = true
	ps.req = req
	m.nd.Ctr.V[sim.CtrMgrRequests]++
	m.flushWriter(req.Idx, ps)
}

// flushWriter creates a coherent version at the pager: the writer is
// downgraded to a reader, and — the NMK13 behaviour the paper calls out —
// its dirty contents are written to paging space the first time another
// node requests the page.
func (m *Manager) flushWriter(idx vm.PageIdx, ps *mpage) {
	if ps.writer == noNode {
		m.flushReaders(idx, ps)
		return
	}
	ps.stage = stFlushWriter
	ps.seq, ps.sent, ps.acks = m.flushSeq+1, 1, 1
	m.flush(ps.writer, idx, vm.ProtRead)
}

// writerFlushed takes the writer's flush ack.
func (m *Manager) writerFlushed(idx vm.PageIdx, ps *mpage, ack *flushAck) {
	if ack.Present && ack.Dirty {
		// First remote request for a dirty page: write it to paging space
		// before serving (paper §4.1.1). The writer keeps a read copy.
		m.nd.Ctr.V[sim.CtrMgrDirtyToPager]++
		m.readers.add(idx, ack.From)
		ps.stage = stWriterOut
		m.io.PageOut(m.obj, idx, ack.Data, true, m)
		return
	}
	if ack.Present {
		m.readers.add(idx, ack.From)
	}
	m.writerGone(idx, ps)
}

// PageOutDone implements pager.PageOutDone: the writer's dirty contents
// are at the pager.
func (m *Manager) PageOutDone(_ vm.ObjID, idx vm.PageIdx) {
	ps := &m.pages[idx]
	if ps.stage != stWriterOut {
		panic(fmt.Sprintf("xmm: page-out completion for %v page %d in stage %d", m.obj, idx, ps.stage))
	}
	m.writerGone(idx, ps)
}

// writerGone ends the writer flush and moves on to the readers.
func (m *Manager) writerGone(idx vm.PageIdx, ps *mpage) {
	ps.writer = noNode
	m.flushReaders(idx, ps)
}

// flushReaders invalidates read copies before a write grant. Flushes are
// pipelined: all sent, in ascending node order, then all acks awaited
// (sender-side send cost serializes at the manager's message processor).
func (m *Manager) flushReaders(idx vm.PageIdx, ps *mpage) {
	if ps.req.Want != vm.ProtWrite {
		m.supply(idx, ps)
		return
	}
	ps.seq, ps.sent = m.flushSeq+1, 0
	for wi, w := range m.readers.run(idx) {
		for ; w != 0; w &= w - 1 {
			if r := mesh.NodeID(wi<<6 + bits.TrailingZeros64(w)); r != ps.req.Origin {
				m.flush(r, idx, vm.ProtNone)
				ps.sent++
			}
		}
	}
	if ps.sent == 0 {
		m.supply(idx, ps)
		return
	}
	ps.stage = stFlushReaders
	ps.acks = ps.sent
}

// supply gets coherent contents to the origin node.
func (m *Manager) supply(idx vm.PageIdx, ps *mpage) {
	if req := &ps.req; req.Want == vm.ProtWrite && m.readers.has(idx, req.Origin) {
		// Upgrade: the origin still holds the contents; no data needed.
		m.nd.Ctr.V[sim.CtrMgrUpgrades]++
		m.sendSupply(req.Origin, supplyMsg{Obj: m.obj, Idx: idx, Lock: vm.ProtWrite, NoData: true})
		m.finish(idx, ps)
		return
	}
	ps.stage = stPagerIn
	m.io.PageIn(m.obj, idx, m)
}

// PageInDone implements pager.PageInDone: the contents for the request in
// service have arrived.
func (m *Manager) PageInDone(_ vm.ObjID, idx vm.PageIdx, data []byte, found bool) {
	ps := &m.pages[idx]
	if ps.stage != stPagerIn {
		panic(fmt.Sprintf("xmm: page-in completion for %v page %d in stage %d", m.obj, idx, ps.stage))
	}
	req := &ps.req
	if found {
		m.sendSupply(req.Origin, supplyMsg{Obj: m.obj, Idx: idx, Data: data, Lock: req.Want})
	} else {
		m.sendSupply(req.Origin, supplyMsg{Obj: m.obj, Idx: idx, Lock: req.Want, Fresh: true})
	}
	m.finish(idx, ps)
}

// finish records the grant and starts the next queued request.
func (m *Manager) finish(idx vm.PageIdx, ps *mpage) {
	if ps.req.Want == vm.ProtWrite {
		ps.writer = ps.req.Origin
		m.readers.clear(idx)
	} else {
		m.readers.add(idx, ps.req.Origin)
	}
	ps.busy = false
	ps.stage = stIdle
	if n := len(ps.queue); n > 0 {
		next := ps.queue[0]
		ps.queue = ps.queue[:copy(ps.queue, ps.queue[1:])]
		m.handleRequest(next)
	}
}

// handleFlushAck routes a proxy's flush completion to its page. An ack
// outside the page's current round, or a second one from the same node,
// is a protocol bug.
func (m *Manager) handleFlushAck(ack *flushAck) {
	ps := &m.pages[ack.Idx]
	if ps.stage != stFlushWriter && ps.stage != stFlushReaders ||
		ack.Seq-ps.seq >= uint64(ps.sent) || !m.awaiting.del(ack.Idx, ack.From) {
		panic(fmt.Sprintf("xmm: stray flush ack seq %d", ack.Seq))
	}
	if ps.stage == stFlushWriter {
		m.writerFlushed(ack.Idx, ps, ack)
		return
	}
	m.readers.del(ack.Idx, ack.From)
	if ps.acks--; ps.acks == 0 {
		m.supply(ack.Idx, ps)
	}
}

// flush sends a lock/flush command to a node; its ack is due.
func (m *Manager) flush(to mesh.NodeID, idx vm.PageIdx, newLock vm.Prot) {
	m.flushSeq++
	m.awaiting.add(idx, to)
	m.nd.Ctr.V[sim.CtrMgrFlushes]++
	m.nd.TR.Send(m.nd.Self, to, Proto, 0,
		m.nd.pools.flush.Get(flushMsg{Obj: m.obj, Idx: idx, NewLock: newLock, Seq: m.flushSeq}))
}

func (m *Manager) sendSupply(to mesh.NodeID, s supplyMsg) {
	m.nd.TR.Send(m.nd.Self, to, Proto, s.WireBytes(), m.nd.pools.supply.Get(s))
}

// nodeSets holds one bitset run per page, indexed by node ID. The runs sit
// back to back in one slice: pages × nodes bits, allocated once.
type nodeSets struct {
	w     []uint64
	words int
}

func newNodeSets(pages vm.PageIdx, nodes int) nodeSets {
	words := (nodes + 63) >> 6
	return nodeSets{w: make([]uint64, int(pages)*words), words: words}
}

// run returns the page's bitset.
func (s *nodeSets) run(idx vm.PageIdx) []uint64 {
	o := int(idx) * s.words
	return s.w[o : o+s.words : o+s.words]
}

func (s *nodeSets) has(idx vm.PageIdx, n mesh.NodeID) bool {
	return s.run(idx)[n>>6]&(1<<(n&63)) != 0
}

func (s *nodeSets) add(idx vm.PageIdx, n mesh.NodeID) {
	s.run(idx)[n>>6] |= 1 << (n & 63)
}

// del removes n and reports whether it was present.
func (s *nodeSets) del(idx vm.PageIdx, n mesh.NodeID) bool {
	w := &s.run(idx)[n>>6]
	was := *w&(1<<(n&63)) != 0
	*w &^= 1 << (n & 63)
	return was
}

func (s *nodeSets) clear(idx vm.PageIdx) { clear(s.run(idx)) }
