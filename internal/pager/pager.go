// Package pager implements user-level memory managers: the default pager
// (paging space for anonymous memory) and the file pager (UFS-style memory
// mapped files), both running on I/O nodes with attached disks — the
// Paragon typically had one disk node per 32 compute nodes.
//
// A pager is a Server reachable over a transport channel; kernels and
// distribution layers (XMM, ASVM) talk to it through a Client, or bind it
// directly into a kernel as its MemoryManager with a Binding.
package pager

import (
	"fmt"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// IONodeFor returns the I/O node serving a compute node: one disk node per
// ioRatio compute nodes, at the start of each group.
func IONodeFor(n mesh.NodeID, total, ioRatio int) mesh.NodeID {
	if ioRatio <= 0 {
		return 0
	}
	io := (int(n) / ioRatio) * ioRatio
	if io >= total {
		io = 0
	}
	return mesh.NodeID(io)
}

// Costs are the pager task's software costs.
type Costs struct {
	// ServeCPU is the pager's per-request processing time (its user task
	// runs on the node's compute processor).
	ServeCPU time.Duration
	// ZeroSupplyCPU is the cost of supplying an initially zero-filled page
	// (fresh file page / unbacked anonymous page).
	ZeroSupplyCPU time.Duration
}

// DefaultCosts returns calibrated pager costs (DESIGN.md §6).
func DefaultCosts() Costs {
	return Costs{
		ServeCPU:      350 * time.Microsecond,
		ZeroSupplyCPU: 500 * time.Microsecond,
	}
}

// Protocol messages.
type (
	// PageInReq asks the pager for a page's backing contents. ReplyTo is
	// the requesting client's private reply channel.
	PageInReq struct {
		ID      uint64
		Obj     vm.ObjID
		Idx     vm.PageIdx
		ReplyTo xport.ProtoID
	}
	// PageInReply answers a PageInReq. Found=false means the pager has no
	// contents: the page may be zero-filled.
	PageInReply struct {
		ID    uint64
		Data  []byte
		Found bool
	}
	// PageOutMsg writes page contents to backing store.
	PageOutMsg struct {
		ID      uint64
		Obj     vm.ObjID
		Idx     vm.PageIdx
		Data    []byte
		Dirty   bool
		ReplyTo xport.ProtoID
	}
	// PageOutAck confirms a PageOutMsg reached stable storage.
	PageOutAck struct {
		ID uint64
	}
)

type backingKey struct {
	obj vm.ObjID
	idx vm.PageIdx
}

// Server is a pager task instance on an I/O node.
type Server struct {
	Name string

	// proto is the interned transport channel the server listens on.
	proto xport.ProtoID

	eng   *sim.Engine
	tr    xport.Transport
	node  mesh.NodeID
	disk  *node.Disk
	costs Costs
	srv   *sim.Server // the pager task's CPU

	// CacheInMemory keeps served pages in the pager's own memory (the UFS
	// buffer behaviour); the default pager always goes to disk.
	CacheInMemory bool

	trackData bool
	backing   map[backingKey][]byte // contents (or nil placeholders when !trackData)
	exists    map[backingKey]bool
	cached    map[backingKey]bool

	// Stats.
	PageIns, PageOuts   uint64
	DiskReads, DiskSkip uint64

	clients map[mesh.NodeID]int // per-node reply-channel namer for NewClient
}

// NewServer registers a pager server on ioNode under the given channel
// name. disk may be nil (infinitely fast backing store, for tests).
func NewServer(eng *sim.Engine, tr xport.Transport, ioNode mesh.NodeID, d *node.Disk,
	costs Costs, name string, trackData bool) *Server {
	s := &Server{
		Name: name, eng: eng, tr: tr, node: ioNode, disk: d, costs: costs,
		proto:     xport.RegisterProto("pager/" + name),
		srv:       sim.NewServer(eng, "pager/"+name),
		trackData: trackData,
		backing:   make(map[backingKey][]byte),
		exists:    make(map[backingKey]bool),
		cached:    make(map[backingKey]bool),
	}
	tr.Register(ioNode, s.proto, s.handle)
	return s
}

// NodeID returns the I/O node the server runs on.
func (s *Server) NodeID() mesh.NodeID { return s.node }

// Proto returns the interned transport channel the server listens on.
func (s *Server) Proto() xport.ProtoID { return s.proto }

// Preload seeds backing contents for a page without any simulated cost
// (building initial file contents for an experiment).
func (s *Server) Preload(obj vm.ObjID, idx vm.PageIdx, data []byte) {
	key := backingKey{obj, idx}
	s.exists[key] = true
	if s.trackData {
		buf := make([]byte, vm.PageSize)
		copy(buf, data)
		s.backing[key] = buf
	}
}

// Has reports whether backing contents exist for the page.
func (s *Server) Has(obj vm.ObjID, idx vm.PageIdx) bool {
	return s.exists[backingKey{obj, idx}]
}

// Contents returns stored contents (tests only).
func (s *Server) Contents(obj vm.ObjID, idx vm.PageIdx) []byte {
	return s.backing[backingKey{obj, idx}]
}

func (s *Server) handle(src mesh.NodeID, m interface{}) {
	switch msg := m.(type) {
	case PageInReq:
		s.pageIn(src, msg)
	case PageOutMsg:
		s.pageOut(src, msg)
	default:
		panic(fmt.Sprintf("pager %s: unknown message %T", s.Name, m))
	}
}

func (s *Server) pageIn(src mesh.NodeID, req PageInReq) {
	s.PageIns++
	key := backingKey{req.Obj, req.Idx}
	if !s.exists[key] {
		// Nothing backing the page: zero fill at the requester.
		s.srv.Do(s.costs.ZeroSupplyCPU, func() {
			s.tr.Send(s.node, src, req.ReplyTo, 0, PageInReply{ID: req.ID, Found: false})
		})
		return
	}
	reply := func() {
		data := s.backing[key]
		s.tr.Send(s.node, src, req.ReplyTo, vm.PageSize, PageInReply{ID: req.ID, Data: data, Found: true})
	}
	s.srv.Do(s.costs.ServeCPU, func() {
		if s.CacheInMemory && s.cached[key] || s.disk == nil {
			s.DiskSkip++
			reply()
			return
		}
		s.DiskReads++
		s.disk.Read(vm.PageSize, func() {
			if s.CacheInMemory {
				s.cached[key] = true
			}
			reply()
		})
	})
}

func (s *Server) pageOut(src mesh.NodeID, msg PageOutMsg) {
	s.PageOuts++
	key := backingKey{msg.Obj, msg.Idx}
	s.exists[key] = true
	if s.trackData {
		buf := make([]byte, vm.PageSize)
		copy(buf, msg.Data)
		s.backing[key] = buf
	}
	if s.CacheInMemory {
		s.cached[key] = true
	}
	ack := func() {
		s.tr.Send(s.node, src, msg.ReplyTo, 0, PageOutAck{ID: msg.ID})
	}
	s.srv.Do(s.costs.ServeCPU, func() {
		if s.disk == nil {
			ack()
			return
		}
		s.disk.Write(vm.PageSize, ack)
	})
}

// ---------------------------------------------------------------------------
// Client

// Client issues pager requests from one node and routes replies back to
// callbacks. Each client has its own private reply channel, so any number
// of clients may talk to the same server from the same node.
type Client struct {
	eng     *sim.Engine
	tr      xport.Transport
	self    mesh.NodeID
	server  mesh.NodeID
	proto   xport.ProtoID
	replyTo xport.ProtoID
	nextID  uint64
	pendIn  map[uint64]func(data []byte, found bool)
	pendOut map[uint64]func()
}

// NewClient creates a client on node self for the given server. Reply
// channels are named by a counter per (server, node), not a package global:
// a global would race (and make names run-order dependent) when independent
// simulations execute in parallel in the experiment harness. Handlers are
// registered per node, so clients on different nodes share a channel — a
// counter per server alone interned one channel per client, and transports
// whose handler rows are dense in ProtoID then paid nodes² table entries.
// (The interned ProtoID values themselves may vary with cross-cell
// registration order, but they are opaque dispatch keys — only names reach
// reports.)
func NewClient(eng *sim.Engine, tr xport.Transport, self mesh.NodeID, server *Server) *Client {
	if server.clients == nil {
		server.clients = make(map[mesh.NodeID]int)
	}
	server.clients[self]++
	c := &Client{
		eng: eng, tr: tr, self: self,
		server: server.NodeID(), proto: server.Proto(),
		replyTo: xport.RegisterProto(fmt.Sprintf("pager/%s/r%d", server.Name, server.clients[self])),
		pendIn:  make(map[uint64]func([]byte, bool)),
		pendOut: make(map[uint64]func()),
	}
	tr.Register(self, c.replyTo, c.handleReply)
	return c
}

func (c *Client) handleReply(src mesh.NodeID, m interface{}) {
	switch msg := m.(type) {
	case PageInReply:
		cb, ok := c.pendIn[msg.ID]
		if !ok {
			panic(fmt.Sprintf("pager client: stray page-in reply %d", msg.ID))
		}
		delete(c.pendIn, msg.ID)
		cb(msg.Data, msg.Found)
	case PageOutAck:
		cb, ok := c.pendOut[msg.ID]
		if !ok {
			panic(fmt.Sprintf("pager client: stray page-out ack %d", msg.ID))
		}
		delete(c.pendOut, msg.ID)
		cb()
	default:
		panic(fmt.Sprintf("pager client: unknown reply %T", m))
	}
}

// PageIn requests page contents; cb receives them (found=false: zero
// fill).
func (c *Client) PageIn(obj vm.ObjID, idx vm.PageIdx, cb func(data []byte, found bool)) {
	c.nextID++
	id := c.nextID
	c.pendIn[id] = cb
	c.tr.Send(c.self, c.server, c.proto, 0, PageInReq{ID: id, Obj: obj, Idx: idx, ReplyTo: c.replyTo})
}

// PageOut writes page contents to the pager; cb runs when stable.
func (c *Client) PageOut(obj vm.ObjID, idx vm.PageIdx, data []byte, dirty bool, cb func()) {
	c.nextID++
	id := c.nextID
	c.pendOut[id] = cb
	c.tr.Send(c.self, c.server, c.proto, vm.PageSize, PageOutMsg{ID: id, Obj: obj, Idx: idx, Data: data, Dirty: dirty, ReplyTo: c.replyTo})
}

// ---------------------------------------------------------------------------
// Binding: plug a pager directly into a kernel as its MemoryManager.

// Binding adapts a Client to vm.MemoryManager for a single kernel — the
// configuration of a node whose memory object is backed directly by a
// pager with no distribution layer (single-node mappings, and the default
// pager for anonymous pageout).
type Binding struct {
	K *vm.Kernel
	C *Client
}

// NewBinding builds a binding for kernel k talking to server through tr.
func NewBinding(k *vm.Kernel, eng *sim.Engine, tr xport.Transport, server *Server) *Binding {
	return &Binding{K: k, C: NewClient(eng, tr, k.Node, server)}
}

// DataRequest implements vm.MemoryManager.
func (b *Binding) DataRequest(o *vm.Object, idx vm.PageIdx, desired vm.Prot) {
	b.C.PageIn(o.ID, idx, func(data []byte, found bool) {
		if found {
			b.K.DataSupply(o, idx, data, vm.ProtWrite, false)
		} else {
			b.K.DataUnavailable(o, idx, vm.ProtWrite)
		}
	})
}

// DataUnlock implements vm.MemoryManager; pager-backed pages are never
// lock-restricted by the pager, so upgrades are immediate.
func (b *Binding) DataUnlock(o *vm.Object, idx vm.PageIdx, desired vm.Prot) {
	b.K.LockGrant(o, idx, desired)
}

// DataReturn implements vm.MemoryManager.
func (b *Binding) DataReturn(o *vm.Object, idx vm.PageIdx, data []byte, dirty, kept bool) {
	b.C.PageOut(o.ID, idx, data, dirty, func() {
		if !kept {
			b.K.RemovePage(o, idx)
		}
	})
}

// Terminate implements vm.MemoryManager.
func (b *Binding) Terminate(o *vm.Object) {}

var _ vm.MemoryManager = (*Binding)(nil)
