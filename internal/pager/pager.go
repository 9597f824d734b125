// Package pager implements user-level memory managers: the default pager
// (paging space for anonymous memory) and the file pager (UFS-style memory
// mapped files), both running on I/O nodes with attached disks — the
// Paragon typically had one disk node per 32 compute nodes.
//
// A pager is a Server reachable over a transport channel; the distribution
// layers (XMM, ASVM) talk to it through a Client.
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

// op is one pager request, its service and its reply in a single pooled
// box. The client sends it; the server steps it through its stages as a
// sim.Runnable — the pager task's CPU, then the disk unless the page is
// cached or there is no disk, then the reply — and sends the same box back
// on the client's reply channel; the client recycles it once it has read
// the reply. A page-in reply with found=false means the pager has no
// contents: the page may be zero-filled.
type op struct {
	s       *Server
	id      uint64
	obj     vm.ObjID
	idx     vm.PageIdx
	data    []byte // page-out: the contents; page-in reply: the backing copy
	out     bool   // a page-out (else a page-in)
	found   bool
	stage   uint8
	src     mesh.NodeID
	replyTo xport.ProtoID
}

// The stages an op waits in at the server.
const (
	opServed uint8 = iota // the pager task's CPU is done
	opRead                // a page-in's disk read is done
	opReply               // nothing is left but the reply
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

	// ops recycles the request boxes of every client of this server.
	ops xport.Pool[op]
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

func (s *Server) handle(src mesh.NodeID, m interface{}) {
	o, ok := m.(*op)
	if !ok {
		panic(fmt.Sprintf("pager %s: unknown message %T", s.Name, m))
	}
	o.src = src
	key := backingKey{o.obj, o.idx}
	o.stage = opServed
	if o.out {
		s.PageOuts++
		s.exists[key] = true
		if s.trackData {
			buf := make([]byte, vm.PageSize)
			copy(buf, o.data)
			s.backing[key] = buf
		}
		o.data = nil
		if s.CacheInMemory {
			s.cached[key] = true
		}
		s.srv.DoRun(s.costs.ServeCPU, o)
		return
	}
	s.PageIns++
	if o.found = s.exists[key]; !o.found {
		// Nothing backing the page: zero fill at the requester.
		o.stage = opReply
		s.srv.DoRun(s.costs.ZeroSupplyCPU, o)
		return
	}
	s.srv.DoRun(s.costs.ServeCPU, o)
}

// Run implements sim.Runnable: it moves a request on from the stage it
// waited in.
func (o *op) Run() {
	s := o.s
	key := backingKey{o.obj, o.idx}
	switch o.stage {
	case opServed:
		if o.out {
			if s.disk != nil {
				o.stage = opReply
				s.disk.Write(vm.PageSize, o)
				return
			}
		} else if s.CacheInMemory && s.cached[key] || s.disk == nil {
			s.DiskSkip++
		} else {
			s.DiskReads++
			o.stage = opRead
			s.disk.Read(vm.PageSize, o)
			return
		}
	case opRead:
		if s.CacheInMemory {
			s.cached[key] = true
		}
	}
	o.reply()
}

// reply sends the box back to its client: a page-out's ack, or a page-in's
// contents as the backing store holds them now.
func (o *op) reply() {
	s := o.s
	payload := 0
	if !o.out && o.found {
		o.data = s.backing[backingKey{o.obj, o.idx}]
		payload = vm.PageSize
	}
	s.tr.Send(s.node, o.src, o.replyTo, payload, o)
}

// ---------------------------------------------------------------------------
// Client

// Client issues pager requests from one node and routes replies back to
// their completions. Each client has its own private reply channel, so any
// number of clients may talk to the same server from the same node.
type Client struct {
	tr      xport.Transport
	self    mesh.NodeID
	srv     *Server
	replyTo xport.ProtoID
	nextID  uint64
	pendIn  map[uint64]PageInDone
	pendOut map[uint64]PageOutDone
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
		tr: tr, self: self, srv: server,
		replyTo: xport.RegisterProto(fmt.Sprintf("pager/%s/r%d", server.Name, server.clients[self])),
		pendIn:  make(map[uint64]PageInDone),
		pendOut: make(map[uint64]PageOutDone),
	}
	tr.Register(self, c.replyTo, c.handleReply)
	return c
}

// handleReply completes the request a reply answers. The box goes back to
// the server's pool first: the completion may send the next request.
func (c *Client) handleReply(src mesh.NodeID, m interface{}) {
	o, ok := m.(*op)
	if !ok {
		panic(fmt.Sprintf("pager client: unknown reply %T", m))
	}
	id, obj, idx, data, found := o.id, o.obj, o.idx, o.data, o.found
	if o.out {
		done, ok := c.pendOut[id]
		if !ok {
			panic(fmt.Sprintf("pager client: stray page-out ack %d", id))
		}
		delete(c.pendOut, id)
		c.srv.ops.Put(o)
		done.PageOutDone(obj, idx)
		return
	}
	done, ok := c.pendIn[id]
	if !ok {
		panic(fmt.Sprintf("pager client: stray page-in reply %d", id))
	}
	delete(c.pendIn, id)
	c.srv.ops.Put(o)
	done.PageInDone(obj, idx, data, found)
}

// PageIn requests page contents; done receives them (found=false: zero
// fill).
func (c *Client) PageIn(obj vm.ObjID, idx vm.PageIdx, done PageInDone) {
	c.nextID++
	c.pendIn[c.nextID] = done
	c.tr.Send(c.self, c.srv.node, c.srv.proto, 0,
		c.srv.ops.Get(op{s: c.srv, id: c.nextID, obj: obj, idx: idx, replyTo: c.replyTo}))
}

// PageOut writes page contents to the pager; done runs when they are
// stable.
func (c *Client) PageOut(obj vm.ObjID, idx vm.PageIdx, data []byte, dirty bool, done PageOutDone) {
	c.nextID++
	c.pendOut[c.nextID] = done
	c.tr.Send(c.self, c.srv.node, c.srv.proto, vm.PageSize,
		c.srv.ops.Get(op{s: c.srv, id: c.nextID, obj: obj, idx: idx, data: data, out: true, replyTo: c.replyTo}))
}
