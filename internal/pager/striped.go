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
	// PageIn requests page contents; done receives them (found=false: the
	// page may be zero-filled).
	PageIn(obj vm.ObjID, idx vm.PageIdx, done PageInDone)
	// PageOut writes page contents to the backing store; done runs when
	// they are stable.
	PageOut(obj vm.ObjID, idx vm.PageIdx, data []byte, dirty bool, done PageOutDone)
}

// PageInDone is a page-in's typed completion. The caller's long-lived
// object implements it — a manager that finds its own state by (obj, idx),
// or a pooled operation — so a request allocates no closure; cold callers
// wrap a func in InFunc.
type PageInDone interface {
	PageInDone(obj vm.ObjID, idx vm.PageIdx, data []byte, found bool)
}

// PageOutDone is a page-out's typed completion (see PageInDone).
type PageOutDone interface {
	PageOutDone(obj vm.ObjID, idx vm.PageIdx)
}

// InFunc adapts a callback to PageInDone, the way sim.Func adapts one to
// sim.Runnable.
type InFunc func(data []byte, found bool)

// PageInDone calls f.
func (f InFunc) PageInDone(_ vm.ObjID, _ vm.PageIdx, data []byte, found bool) { f(data, found) }

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
func (s *Striped) PageIn(obj vm.ObjID, idx vm.PageIdx, done PageInDone) {
	s.stripe(idx).PageIn(obj, idx, done)
}

// PageOut implements PagerIO.
func (s *Striped) PageOut(obj vm.ObjID, idx vm.PageIdx, data []byte, dirty bool, done PageOutDone) {
	s.stripe(idx).PageOut(obj, idx, data, dirty, done)
}

var _ PagerIO = (*Striped)(nil)
