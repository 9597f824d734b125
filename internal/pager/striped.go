package pager

import (
	"asvm/internal/mesh"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// PagerIO is the client-side interface to a memory object's backing store:
// one pager, or — the paper's §6 future-work file system — several pagers
// used in round-robin fashion for a striped file.
type PagerIO interface {
	// PageIn requests page contents; cb receives them (found=false: the
	// page may be zero-filled).
	PageIn(obj vm.ObjID, idx vm.PageIdx, cb func(data []byte, found bool))
	// PageOut writes page contents to the backing store; cb runs when
	// stable.
	PageOut(obj vm.ObjID, idx vm.PageIdx, data []byte, dirty bool, cb func())
}

var _ PagerIO = (*Client)(nil)

// Striped fans a memory object's paging traffic out over multiple pager
// servers round-robin by page index — the paper's §6 sketch of combining
// PFS-style striping with UFS-style mapped-file caching. Page idx lives on
// server idx % stripes, so sequential access spreads across all I/O nodes.
type Striped struct {
	clients []*Client
}

// NewStriped builds the round-robin client set on node self for the given
// stripe servers (one per I/O node).
func NewStriped(eng *sim.Engine, tr xport.Transport, self mesh.NodeID, servers []*Server) *Striped {
	if len(servers) == 0 {
		panic("pager: striped file needs at least one stripe")
	}
	s := &Striped{}
	for _, srv := range servers {
		s.clients = append(s.clients, NewClient(eng, tr, self, srv))
	}
	return s
}

func (s *Striped) stripe(idx vm.PageIdx) *Client {
	return s.clients[int(idx)%len(s.clients)]
}

// PageIn implements PagerIO.
func (s *Striped) PageIn(obj vm.ObjID, idx vm.PageIdx, cb func(data []byte, found bool)) {
	s.stripe(idx).PageIn(obj, idx, cb)
}

// PageOut implements PagerIO.
func (s *Striped) PageOut(obj vm.ObjID, idx vm.PageIdx, data []byte, dirty bool, cb func()) {
	s.stripe(idx).PageOut(obj, idx, data, dirty, cb)
}

var _ PagerIO = (*Striped)(nil)

// StripedBinding plugs a striped file directly into a kernel as its
// memory manager (the single-node mapped-file configuration).
type StripedBinding struct {
	K  *vm.Kernel
	IO PagerIO
}

// DataRequest implements vm.MemoryManager.
func (b *StripedBinding) DataRequest(o *vm.Object, idx vm.PageIdx, desired vm.Prot) {
	b.IO.PageIn(o.ID, idx, func(data []byte, found bool) {
		if found {
			b.K.DataSupply(o, idx, data, vm.ProtWrite, false)
		} else {
			b.K.DataUnavailable(o, idx, vm.ProtWrite)
		}
	})
}

// DataUnlock implements vm.MemoryManager.
func (b *StripedBinding) DataUnlock(o *vm.Object, idx vm.PageIdx, desired vm.Prot) {
	b.K.LockGrant(o, idx, desired)
}

// DataReturn implements vm.MemoryManager.
func (b *StripedBinding) DataReturn(o *vm.Object, idx vm.PageIdx, data []byte, dirty, kept bool) {
	b.IO.PageOut(o.ID, idx, data, dirty, func() {
		if !kept {
			b.K.RemovePage(o, idx)
		}
	})
}

// Terminate implements vm.MemoryManager.
func (b *StripedBinding) Terminate(o *vm.Object) {}

var _ vm.MemoryManager = (*StripedBinding)(nil)
