package asvm

import (
	"asvm/internal/mesh"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// Proto is the STS channel ASVM traffic rides on, interned once at
// package init.
var Proto = xport.RegisterProto("asvm")

// reqKind distinguishes the three request flavours that flow through the
// forwarding machinery.
type reqKind int

const (
	// kindAccess is an ordinary shared-memory access request.
	kindAccess reqKind = iota
	// kindPull is a request that originated in a copy object and is being
	// resolved through shadow chains; the grant is delivered into Target.
	kindPull
	// kindPushScan probes a copy domain for an existing page owner before
	// a push (paper §3.7.2).
	kindPushScan
)

// Wire message types. Every ASVM message is a fixed 32-byte untyped block,
// optionally followed by one page of contents (paper §3.1).
type (
	// accessReq travels through the request redirector to the page owner
	// (or the pager when no owner exists).
	accessReq struct {
		Obj     vm.ObjID // domain currently being searched
		Target  vm.ObjID // domain the grant must be delivered into
		Idx     vm.PageIdx
		Want    vm.Prot
		ReqKind reqKind
		Origin  mesh.NodeID
		Hops    int
		// Scanning marks a request in the global-forwarding ring walk.
		Scanning bool
		// ScannedAll marks a request whose ring walk completed without
		// finding an owner (the home then knows a transfer is in flight).
		ScannedAll bool
		// ForHome routes the request to the home's resolution logic on
		// arrival (set when forwarding decides the pager must answer).
		ForHome bool
		// ScanStart is where the ring walk began (to detect completion).
		ScanStart mesh.NodeID
		// LastFrom is the node that forwarded the request last (loop
		// avoidance for hint chasing).
		LastFrom mesh.NodeID
	}

	// grantMsg answers an accessReq at its origin.
	grantMsg struct {
		Obj       vm.ObjID // == req.Target
		Idx       vm.PageIdx
		Lock      vm.Prot
		Data      []byte
		HasData   bool
		Fresh     bool // zero-fill grant
		Ownership bool
		Readers   []mesh.NodeID // transferred reader list
		Version   uint64        // push version of the page
		Retry     bool          // push/eviction race: re-forward the request
		// AtPagerCopy marks contents the pager also holds (a clean page-in
		// grant): the new owner's copy may stay clean.
		AtPagerCopy bool
		// Unavailable is the typed failure grant: the request chased the
		// page to its home and the home is down, so nothing can ever be
		// granted. The origin aborts its fault with vm.ErrObjectUnavailable
		// instead of waiting forever. From carries the dead home's ID.
		Unavailable bool
		From        mesh.NodeID
	}

	// invalMsg removes a read copy; the reader learns the new owner for
	// its dynamic hint cache.
	invalMsg struct {
		Obj      vm.ObjID
		Idx      vm.PageIdx
		NewOwner mesh.NodeID
		Seq      uint64
		From     mesh.NodeID
	}

	// invalAck confirms an invalidation. From identifies the acking reader
	// so the owner can strike it from the batch's await list (a crashed
	// reader's slot is completed for it by the failure machinery).
	invalAck struct {
		Obj  vm.ObjID
		Idx  vm.PageIdx
		Seq  uint64
		From mesh.NodeID
	}

	// ownerUpdate refreshes the static ownership manager's cache (and
	// marks pages paged out).
	ownerUpdate struct {
		Obj   vm.ObjID
		Idx   vm.PageIdx
		Owner mesh.NodeID
		Paged bool
	}

	// ownerXfer offers ownership to a node on the reader list during
	// eviction (internode paging step 2 — no page contents needed).
	ownerXfer struct {
		Obj     vm.ObjID
		Idx     vm.PageIdx
		Readers []mesh.NodeID
		Version uint64
		Seq     uint64
		From    mesh.NodeID
	}

	// ownerXferAck accepts or declines an ownership transfer.
	ownerXferAck struct {
		Obj      vm.ObjID
		Idx      vm.PageIdx
		Seq      uint64
		Accepted bool
		From     mesh.NodeID
	}

	// pageOffer offers page contents to a node with free memory
	// (internode paging step 3).
	pageOffer struct {
		Obj     vm.ObjID
		Idx     vm.PageIdx
		Data    []byte
		Version uint64
		Seq     uint64
		From    mesh.NodeID
	}

	// pageOfferAck accepts or declines a page transfer.
	pageOfferAck struct {
		Obj      vm.ObjID
		Idx      vm.PageIdx
		Seq      uint64
		Accepted bool
		From     mesh.NodeID
	}

	// toPager returns a page to the memory object's pager (internode
	// paging step 4), via the domain's home instance. With Lost set it
	// carries no contents at all: it tells the home that the page's
	// ownership died with a crashed node, so the home must forget any
	// outstanding grant and let future faults re-resolve from the pager.
	toPager struct {
		Obj   vm.ObjID
		Idx   vm.PageIdx
		Data  []byte
		Dirty bool
		Lost  bool
		Seq   uint64
		From  mesh.NodeID
	}

	// toPagerAck confirms the page reached the pager.
	toPagerAck struct {
		Obj vm.ObjID
		Idx vm.PageIdx
		Seq uint64
	}

	// pushScanAck answers a kindPushScan request back at the pushing
	// owner. Found=true cancels the push.
	pushScanAck struct {
		SrcObj vm.ObjID // the source domain whose owner is pushing
		Idx    vm.PageIdx
		Found  bool
	}
)

// Message kinds, protocol-scoped (see xport.MsgKind). The dispatcher in
// Node.handle switches on these dense values, which the compiler lowers to
// a jump table instead of a linear type-assertion chain.
const (
	msgAccessReq xport.MsgKind = iota
	msgGrant
	msgInval
	msgInvalAck
	msgOwnerUpdate
	msgOwnerXfer
	msgOwnerXferAck
	msgPageOffer
	msgPageOfferAck
	msgToPager
	msgToPagerAck
	msgPushScanAck
)

// The xport.Msg envelope: each message declares its kind and the payload
// it carries on the wire, so send sites never restate the convention.
// Requests, acks and pure-control messages are header-only; a grant
// carries a page exactly when HasData is set (upgrades, retries and fresh
// zero-fill grants ship no contents); pageOffer always ships the page;
// toPager ships it only when dirty (a clean return is just bookkeeping —
// the pager already has the contents).

// msgPools are the free lists of the hot wire kinds (xport.Pool), one set
// per engine: every node an engine runs shares them, so the box a home
// takes for a grant is the one its grantee returns.
//
// The rule, for boxes and for the page snapshot a grant or page offer
// carries: each is recycled exactly once, by its last consumer. That is the
// receiver, once Node.handle's dispatch returns (the protocol never retains
// a box — actions copy the value out); or the sender, when the message
// comes back as a Nack and handleNack has acted on it; or, for a grant's
// snapshot only, a socket transport's writer once the frame is written
// (WireSent). The transport stack makes "last" well defined: a base
// transport delivers or bounces each send once, and xport.Reliable hands
// each frame up once however many copies duplication and retransmission
// put on the wire (a copy after the first is suppressed or, bounced, dropped
// before it reaches the handler). A mesh node runs its own engine, so its
// pools are its own: they hold the boxes its codec decodes.
type msgPools struct {
	req   xport.Pool[accessReq]
	grant xport.Pool[grantMsg]
	inval xport.Pool[invalMsg]
	iack  xport.Pool[invalAck]
	oupd  xport.Pool[ownerUpdate]
}

// msgPoolsKey attaches the pools to an engine.
type msgPoolsKey struct{}

func (accessReq) Kind() xport.MsgKind { return msgAccessReq }
func (accessReq) WireBytes() int      { return 0 }

func (grantMsg) Kind() xport.MsgKind { return msgGrant }
func (g grantMsg) WireBytes() int {
	if g.HasData {
		return vm.PageSize
	}
	return 0
}

func (invalMsg) Kind() xport.MsgKind { return msgInval }
func (invalMsg) WireBytes() int      { return 0 }

func (invalAck) Kind() xport.MsgKind { return msgInvalAck }
func (invalAck) WireBytes() int      { return 0 }

func (ownerUpdate) Kind() xport.MsgKind { return msgOwnerUpdate }
func (ownerUpdate) WireBytes() int      { return 0 }

func (ownerXfer) Kind() xport.MsgKind { return msgOwnerXfer }
func (ownerXfer) WireBytes() int      { return 0 }

func (ownerXferAck) Kind() xport.MsgKind { return msgOwnerXferAck }
func (ownerXferAck) WireBytes() int      { return 0 }

func (pageOffer) Kind() xport.MsgKind { return msgPageOffer }
func (pageOffer) WireBytes() int      { return vm.PageSize }

func (pageOfferAck) Kind() xport.MsgKind { return msgPageOfferAck }
func (pageOfferAck) WireBytes() int      { return 0 }

func (toPager) Kind() xport.MsgKind { return msgToPager }
func (t toPager) WireBytes() int {
	if t.Dirty {
		return vm.PageSize
	}
	return 0
}

func (toPagerAck) Kind() xport.MsgKind { return msgToPagerAck }
func (toPagerAck) WireBytes() int      { return 0 }

func (pushScanAck) Kind() xport.MsgKind { return msgPushScanAck }
func (pushScanAck) WireBytes() int      { return 0 }

// WireSent is called by a socket transport once the grant's frame is written:
// the box will never be delivered in this process, so its page snapshot is
// dead. (A send that fails comes back as a Nack instead, and handleNack
// returns the snapshot.)
func (g *grantMsg) WireSent() { vm.PutPageBuf(g.Data) }
