package vm

import (
	"fmt"

	"asvm/internal/sim"
)

// Page is a resident page of a VM object on one node. Non-resident pages
// simply have no Page struct — the paper's "state information only about
// pages that are cached into physical memory".
type Page struct {
	Idx PageIdx

	// Data holds the page contents when the cluster tracks data; nil in
	// metadata-only runs.
	Data []byte

	// Lock is the maximum access the memory manager currently allows this
	// node (Mach's page lock, set via memory_object_lock_request).
	Lock Prot

	// Dirty is set when the page has been written since it was last cleaned
	// (supplied or returned).
	Dirty bool

	// Pinned pages are exempt from eviction (in-flight protocol transfers).
	Pinned bool

	// Evicting marks a page whose eviction protocol is in progress; faults
	// must wait for it to finish.
	Evicting bool

	lruTick uint64
}

// Object is the per-node representation of a memory object: a cache of its
// pages plus the shadow/copy links of the delayed-copy machinery.
type Object struct {
	ID     ObjID
	Kernel *Kernel

	// SizePages is the object's length; faults beyond it are errors.
	SizePages PageIdx

	// Pages holds the resident pages on this node.
	Pages map[PageIdx]*Page

	// Shadow points toward the source object this object was copied from
	// (data is pulled through this link). Nil for original objects.
	Shadow *Object

	// Copy points to the most recent copy object made from this object
	// (data is pushed through this link before source writes).
	Copy *Object

	// Mgr is the memory manager backing this object: a pager binding, an
	// XMM proxy, or an ASVM instance. Nil for plain anonymous memory.
	Mgr MemoryManager

	// Strategy is the copy strategy the object's manager declared.
	Strategy CopyStrategy

	// Version counts copies made from this object (ASVM delayed-copy
	// version counter; paper §3.7.2). Page pushes stamp PageVersion.
	Version uint64

	// PageVersion records, per page, the object version at the time of the
	// page's last push. A write needs a push iff PageVersion != Version.
	// Only pages that have been pushed at least once appear here; absent
	// means version 0.
	PageVersion map[PageIdx]uint64

	// PagedOut remembers pages this node evicted to the default pager
	// (anonymous objects only; managed objects track this in their
	// manager).
	PagedOut map[PageIdx]bool

	// MapRefs counts map entries referencing this object on this node.
	MapRefs int

	// pending tracks in-flight data requests per page so concurrent faults
	// coalesce onto one EMMI transaction.
	pending map[PageIdx]*pendingReq

	// Terminated is set once the object is torn down.
	Terminated bool
}

// pendingReq is one in-flight data request/unlock. Records are pooled on
// the kernel (reqFree): the future is embedded by value so record and
// future are a single reusable allocation, and refs counts the procs
// currently inside future.Wait so the pool only takes the record back once
// the last of them has resumed.
type pendingReq struct {
	want   Prot
	refs   int
	err    error // non-nil when the request was typed-failed, not granted
	future sim.Future
}

// NewObject creates an empty object of the given size owned by kernel k.
// It is registered under its ID.
func (k *Kernel) NewObject(id ObjID, sizePages PageIdx, mgr MemoryManager, strategy CopyStrategy) *Object {
	if _, dup := k.objects[id]; dup {
		panic(fmt.Sprintf("vm: duplicate object %v on node %d", id, k.Node))
	}
	o := &Object{
		ID:          id,
		Kernel:      k,
		SizePages:   sizePages,
		Pages:       make(map[PageIdx]*Page),
		Mgr:         mgr,
		Strategy:    strategy,
		PageVersion: make(map[PageIdx]uint64),
		PagedOut:    make(map[PageIdx]bool),
		pending:     make(map[PageIdx]*pendingReq),
	}
	k.objects[id] = o
	return o
}

// NewAnonymous creates a node-private zero-filled object with the symmetric
// copy strategy (Mach's default for temporary memory).
func (k *Kernel) NewAnonymous(sizePages PageIdx) *Object {
	return k.NewObject(k.NextID(), sizePages, nil, CopySymmetric)
}

// Resident reports whether the page is resident (and not mid-eviction).
func (o *Object) Resident(idx PageIdx) bool {
	p, ok := o.Pages[idx]
	return ok && !p.Evicting
}

// Lookup returns the resident page or nil.
func (o *Object) Lookup(idx PageIdx) *Page {
	return o.Pages[idx]
}

// ChainDepth returns the length of the shadow chain below this object
// (0 for an original object).
func (o *Object) ChainDepth() int {
	d := 0
	for s := o.Shadow; s != nil; s = s.Shadow {
		d++
	}
	return d
}

// NeedsPush reports whether a write to the page must first push it down the
// copy chain (paper §3.7.2: page version != object version).
func (o *Object) NeedsPush(idx PageIdx) bool {
	return o.Copy != nil && o.PageVersion[idx] != o.Version
}

// MarkPushed stamps the page as pushed at the current object version.
func (o *Object) MarkPushed(idx PageIdx) {
	o.PageVersion[idx] = o.Version
}

// String implements fmt.Stringer.
func (o *Object) String() string {
	return fmt.Sprintf("%v@n%d[%d pages resident]", o.ID, o.Kernel.Node, len(o.Pages))
}

// MemoryManager is the EMMI as seen from the kernel: the operations Mach
// directs at an external pager (or at XMM/ASVM interposing as one). All
// calls are asynchronous — answers come back through the Kernel's control
// methods.
type MemoryManager interface {
	// DataRequest asks the manager to supply a page with at least the
	// desired access (memory_object_data_request).
	DataRequest(o *Object, idx PageIdx, desired Prot)

	// DataUnlock asks for an access upgrade on a resident page
	// (memory_object_data_unlock).
	DataUnlock(o *Object, idx PageIdx, desired Prot)

	// DataReturn hands back page contents (memory_object_data_return).
	// kept=true means the page stays resident and is merely being cleaned
	// (a lock downgrade of a dirty page); kept=false means the page is
	// leaving the cache (eviction or flush) and the manager must finish
	// the removal with Kernel.RemovePage once it has disposed of the data.
	// data is the page's own frame: it is valid until that RemovePage — or,
	// when a flush already removed the page, only until DataReturn returns
	// — and a manager that needs it longer copies it.
	DataReturn(o *Object, idx PageIdx, data []byte, dirty, kept bool)

	// Terminate tells the manager this node no longer maps the object.
	Terminate(o *Object)
}

// ZeroFiller is an optional MemoryManager refinement: managers return true
// from CanZeroFill when the kernel may satisfy an initial-touch fault
// locally instead of issuing a DataRequest. Plain pagers never allow it;
// ASVM allows it for anonymous objects whose page is known fresh.
type ZeroFiller interface {
	CanZeroFill(o *Object, idx PageIdx) bool
}
