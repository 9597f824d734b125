package xmm

import (
	"fmt"

	"asvm/internal/mesh"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// CopyPagerProto is the channel internal copy-pager traffic rides on.
// (Same NORMA transport, separate dispatch.)

// CopyPager is an XMM-internal pager serving an inherited memory region
// out of a *copy address space* on the source node (paper §2.3.3): a
// remote fault arrives by message, a kernel thread takes a page fault on
// the local copy map, and the resulting contents are shipped back. The
// thread blocks for the duration — across a copy chain this re-enters
// nodes and can exhaust the pool (the deadlock ASVM's asynchronous design
// eliminates).
type CopyPager struct {
	nd    *Node
	id    uint64
	task  *vm.Task
	entry *vm.Entry
}

// newCopyPager registers a copy pager for one entry of a copy address
// space.
func newCopyPager(nd *Node, copyTask *vm.Task, entry *vm.Entry) *CopyPager {
	nd.nextPager++
	// Pager IDs embed the source node so they are unique cluster-wide.
	id := uint64(nd.Self)<<32 | nd.nextPager
	cp := &CopyPager{nd: nd, id: id, task: copyTask, entry: entry}
	nd.copyPagers[cp.id] = cp
	return cp
}

func (cp *CopyPager) handleRequest(req copyReq) {
	cp.nd.Ctr.V[sim.CtrCopyPagerFaults]++
	cp.nd.Eng.Spawn(fmt.Sprintf("xmmcp%d", cp.id), func(p *sim.Proc) {
		cp.nd.CopyThreads.Acquire(p)
		defer cp.nd.CopyThreads.Release()
		addr := cp.entry.Start + vm.Addr(req.Idx-cp.entry.OffsetPages)*vm.PageSize
		pg, err := cp.task.Touch(p, addr, vm.ProtRead)
		if err != nil {
			panic(fmt.Sprintf("xmm: copy pager fault failed: %v", err))
		}
		reply := copyReply{PagerID: req.PagerID, Idx: req.Idx}
		payload := 0
		if pg.Data != nil {
			// A copy: the source frame may be evicted and recycled while
			// the reply is in flight.
			reply.Data = append([]byte(nil), pg.Data...)
			payload = vm.PageSize
		} else {
			// Metadata-only run, or genuinely zero: either way the
			// requester zero-fills.
			reply.Zero = true
		}
		cp.nd.TR.Send(cp.nd.Self, req.Origin, Proto, payload, reply)
	})
}

// copyBinding is the remote-node memory manager for an inherited region: a
// thin client of the source node's CopyPager.
type copyBinding struct {
	nd      *Node
	o       *vm.Object
	pagerID uint64
	srcNode mesh.NodeID
}

// DataRequest implements vm.MemoryManager.
func (b *copyBinding) DataRequest(o *vm.Object, idx vm.PageIdx, desired vm.Prot) {
	b.nd.Ctr.V[sim.CtrCopyRequests]++
	b.nd.TR.Send(b.nd.Self, b.srcNode, Proto, 0,
		copyReq{PagerID: b.pagerID, Idx: idx, Origin: b.nd.Self})
}

// DataUnlock implements vm.MemoryManager. Inherited objects are mapped
// needs-copy, so writes interpose shadows and never unlock here; grant
// defensively.
func (b *copyBinding) DataUnlock(o *vm.Object, idx vm.PageIdx, desired vm.Prot) {
	b.nd.K.LockGrant(o, idx, desired)
}

// DataReturn implements vm.MemoryManager. Inherited pages are read-only
// snapshots refetchable from the source, so eviction just drops them.
func (b *copyBinding) DataReturn(o *vm.Object, idx vm.PageIdx, data []byte, dirty, kept bool) {
	if !kept {
		b.nd.K.RemovePage(o, idx)
	}
}

func (b *copyBinding) handleReply(msg copyReply) {
	if msg.Zero {
		b.nd.K.DataUnavailable(b.o, msg.Idx, vm.ProtRead)
		return
	}
	b.nd.K.DataSupply(b.o, msg.Idx, msg.Data, vm.ProtRead, false)
}

var _ vm.MemoryManager = (*copyBinding)(nil)

// RemoteFork creates a child task on dst inheriting parent's address space
// (on src) with NMK13 delayed-copy semantics: a local copy of the source
// address space plus an XMM-internal pager per inherited entry, and
// needs-copy mappings of the new remote objects in the child (paper
// §2.3.3).
func RemoteFork(parent *vm.Task, src, dst *Node, childName string) (*vm.Task, error) {
	if parent.Kernel != src.K {
		return nil, fmt.Errorf("xmm: parent task not on source node %d", src.Self)
	}
	copyMap := parent.Map.ForkLocal()
	copyTask := &vm.Task{Name: parent.Name + ".copy", Kernel: src.K, Map: copyMap}
	child := dst.K.NewTask(childName)
	for _, entry := range copyMap.Entries() {
		cp := newCopyPager(src, copyTask, entry)
		b := &copyBinding{nd: dst, pagerID: cp.id, srcNode: src.Self}
		objSize := entry.OffsetPages + entry.Pages()
		o := dst.K.NewObject(dst.K.NextID(), objSize, b, vm.CopyNone)
		b.o = o
		dst.copyObjs[cp.id] = b
		ce, err := child.Map.MapObject(entry.Start, o, entry.OffsetPages, entry.Pages(), entry.MaxProt, vm.InheritCopy)
		if err != nil {
			return nil, fmt.Errorf("xmm: remote fork mapping: %w", err)
		}
		// Writes in the child must not reach the frozen copy: evaluate
		// them through a shadow, like any delayed copy.
		ce.NeedsCopy = true
	}
	return child, nil
}
