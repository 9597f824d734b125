package xmm

import (
	"fmt"
	"slices"

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
type Manager struct {
	nd        *Node
	obj       vm.ObjID
	sizePages vm.PageIdx
	mapping   []mesh.NodeID
	pagerCli  pager.PagerIO

	// store is a zero-cost in-memory paging space used when no pager
	// client is configured (unit tests).
	store map[vm.PageIdx][]byte

	pages        map[vm.PageIdx]*mpage
	flushSeq     uint64
	pendingFlush map[uint64]func(flushAck)
}

// mpage is the manager's view of one page.
type mpage struct {
	writer  mesh.NodeID
	readers map[mesh.NodeID]bool
	busy    bool
	queue   []accessReq

	// evictWait resumes a flush that found the page absent because the
	// holder's eviction (carrying the dirty data) is still in flight.
	evictWait func()
}

func newManager(nd *Node, obj vm.ObjID, sizePages vm.PageIdx, mapping []mesh.NodeID, cli pager.PagerIO) *Manager {
	return &Manager{
		nd: nd, obj: obj, sizePages: sizePages, mapping: mapping, pagerCli: cli,
		store:        make(map[vm.PageIdx][]byte),
		pages:        make(map[vm.PageIdx]*mpage),
		pendingFlush: make(map[uint64]func(flushAck)),
	}
}

func (m *Manager) page(idx vm.PageIdx) *mpage {
	ps := m.pages[idx]
	if ps == nil {
		ps = &mpage{writer: noNode, readers: make(map[mesh.NodeID]bool)}
		m.pages[idx] = ps
	}
	return ps
}

// handleRequest serializes per-page operations: one request is processed at
// a time, the rest queue — the centralized bottleneck the paper measures.
func (m *Manager) handleRequest(req accessReq) {
	ps := m.page(req.Idx)
	if ps.busy {
		ps.queue = append(ps.queue, req)
		return
	}
	ps.busy = true
	m.nd.Ctr.V[sim.CtrMgrRequests]++
	m.stepFlushWriter(req, ps)
}

// stepFlushWriter creates a coherent version at the pager: the writer is
// downgraded to a reader, and — the NMK13 behaviour the paper calls out —
// its dirty contents are written to paging space the first time another
// node requests the page.
func (m *Manager) stepFlushWriter(req accessReq, ps *mpage) {
	w := ps.writer
	if w == noNode {
		m.stepFlushReaders(req, ps)
		return
	}
	m.flush(w, req.Idx, vm.ProtRead, func(ack flushAck) {
		finish := func() {
			ps.writer = noNode
			m.stepFlushReaders(req, ps)
		}
		switch {
		case ack.Present && ack.Dirty:
			// First remote request for a dirty page: write it to paging
			// space before serving (paper §4.1.1). The writer keeps a
			// read copy.
			m.nd.Ctr.V[sim.CtrMgrDirtyToPager]++
			ps.readers[w] = true
			m.pagerOut(req.Idx, ack.Data, finish)
		case ack.Present:
			ps.readers[w] = true
			finish()
		default:
			// Page already gone from the writer: its eviction message is
			// in flight (or processed). Wait for it if the state still
			// says writer.
			if ps.writer == noNode {
				finish()
				return
			}
			ps.evictWait = finish
		}
	})
}

// stepFlushReaders invalidates read copies before a write grant. Flushes
// are pipelined: all sent, then all acks awaited (sender-side send cost
// serializes at the manager's message processor).
func (m *Manager) stepFlushReaders(req accessReq, ps *mpage) {
	if req.Want != vm.ProtWrite {
		m.stepSupply(req, ps)
		return
	}
	var targets []mesh.NodeID
	for r := range ps.readers {
		if r != req.Origin {
			targets = append(targets, r)
		}
	}
	slices.Sort(targets)
	if len(targets) == 0 {
		m.stepSupply(req, ps)
		return
	}
	remaining := len(targets)
	for _, r := range targets {
		r := r
		m.flush(r, req.Idx, vm.ProtNone, func(ack flushAck) {
			delete(ps.readers, r)
			remaining--
			if remaining == 0 {
				m.stepSupply(req, ps)
			}
		})
	}
}

// stepSupply gets coherent contents to the origin node and updates state.
func (m *Manager) stepSupply(req accessReq, ps *mpage) {
	finish := func() {
		if req.Want == vm.ProtWrite {
			ps.writer = req.Origin
			ps.readers = make(map[mesh.NodeID]bool)
		} else {
			ps.readers[req.Origin] = true
		}
		ps.busy = false
		if len(ps.queue) > 0 {
			next := ps.queue[0]
			ps.queue = ps.queue[1:]
			m.handleRequest(next)
		}
	}
	if req.Want == vm.ProtWrite && ps.readers[req.Origin] {
		// Upgrade: the origin still holds the contents; no data needed.
		m.nd.Ctr.V[sim.CtrMgrUpgrades]++
		m.send(req.Origin, 0, supplyMsg{Obj: m.obj, Idx: req.Idx, Lock: vm.ProtWrite, NoData: true})
		finish()
		return
	}
	m.pagerIn(req.Idx, func(data []byte, found bool) {
		if found {
			m.send(req.Origin, vm.PageSize, supplyMsg{Obj: m.obj, Idx: req.Idx, Data: data, Lock: req.Want})
		} else {
			m.send(req.Origin, 0, supplyMsg{Obj: m.obj, Idx: req.Idx, Lock: req.Want, Fresh: true})
		}
		finish()
	})
}

// handleFlushAck routes a proxy's flush completion to its continuation.
func (m *Manager) handleFlushAck(ack flushAck) {
	cb, ok := m.pendingFlush[ack.Seq]
	if !ok {
		panic(fmt.Sprintf("xmm: stray flush ack seq %d", ack.Seq))
	}
	delete(m.pendingFlush, ack.Seq)
	cb(ack)
}

// handleEvict processes a node's data_return: dirty contents go to paging
// space; state drops the node; the frame is released with an ack.
func (m *Manager) handleEvict(ev evictMsg) {
	ps := m.page(ev.Idx)
	done := func() {
		if ps.writer == ev.From {
			ps.writer = noNode
		}
		delete(ps.readers, ev.From)
		m.send(ev.From, 0, evictAck{Obj: m.obj, Idx: ev.Idx})
		if w := ps.evictWait; w != nil {
			ps.evictWait = nil
			w()
		}
	}
	if ev.Dirty {
		m.nd.Ctr.V[sim.CtrMgrPageouts]++
		m.pagerOut(ev.Idx, ev.Data, done)
	} else {
		done()
	}
}

// flush sends a lock/flush command to a node and registers the ack
// continuation.
func (m *Manager) flush(to mesh.NodeID, idx vm.PageIdx, newLock vm.Prot, cb func(flushAck)) {
	m.flushSeq++
	m.pendingFlush[m.flushSeq] = cb
	m.nd.Ctr.V[sim.CtrMgrFlushes]++
	m.send(to, 0, flushMsg{Obj: m.obj, Idx: idx, NewLock: newLock, Seq: m.flushSeq})
}

func (m *Manager) send(to mesh.NodeID, payload int, msg interface{}) {
	m.nd.TR.Send(m.nd.Self, to, Proto, payload, msg)
}

func (m *Manager) pagerOut(idx vm.PageIdx, data []byte, cb func()) {
	if m.pagerCli == nil {
		buf := make([]byte, len(data))
		copy(buf, data)
		m.store[idx] = buf
		m.nd.Eng.Schedule(0, cb)
		return
	}
	m.pagerCli.PageOut(m.obj, idx, data, true, cb)
}

func (m *Manager) pagerIn(idx vm.PageIdx, cb func(data []byte, found bool)) {
	if m.pagerCli == nil {
		data, ok := m.store[idx]
		m.nd.Eng.Schedule(0, func() { cb(data, ok) })
		return
	}
	m.pagerCli.PageIn(m.obj, idx, cb)
}
