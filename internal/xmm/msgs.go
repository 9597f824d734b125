package xmm

import (
	"asvm/internal/mesh"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// Proto is the transport channel XMM traffic rides on, interned once at
// package init.
var Proto = xport.RegisterProto("xmm")

// Wire message types. XMM speaks XMMI — an extension of EMMI — over
// NORMA-IPC, so each of these corresponds to a (heavyweight) typed IPC
// message.
type (
	// accessReq asks the centralized manager for page access
	// (memory_object_data_request / data_unlock forwarded by a proxy).
	accessReq struct {
		Obj    vm.ObjID
		Idx    vm.PageIdx
		Want   vm.Prot
		Origin mesh.NodeID
	}

	// supplyMsg grants access to the requesting node. NoData means the
	// requester already holds the contents (a read-to-write upgrade);
	// Fresh means no backing contents exist and the page may be
	// zero-filled.
	supplyMsg struct {
		Obj    vm.ObjID
		Idx    vm.PageIdx
		Data   []byte
		Lock   vm.Prot
		NoData bool
		Fresh  bool
	}

	// flushMsg tells a proxy to restrict (or flush, NewLock==ProtNone) a
	// page in its node's VM cache.
	flushMsg struct {
		Obj     vm.ObjID
		Idx     vm.PageIdx
		NewLock vm.Prot
		Seq     uint64
	}

	// flushAck answers flushMsg, carrying back dirty contents if any.
	flushAck struct {
		Obj     vm.ObjID
		Idx     vm.PageIdx
		Seq     uint64
		Present bool
		Dirty   bool
		Data    []byte
		From    mesh.NodeID
	}

	// copyReq asks an XMM-internal copy pager for a page of an inherited
	// region (remote task creation, paper §2.3.3).
	copyReq struct {
		PagerID uint64
		Idx     vm.PageIdx
		Origin  mesh.NodeID
	}

	// copyReply supplies the page (or zero-fill permission).
	copyReply struct {
		PagerID uint64
		Idx     vm.PageIdx
		Data    []byte
		Zero    bool
	}
)

// Payload accounting for the pooled kinds comes from the message itself: a
// supply ships a page unless it is an upgrade (NoData) or a zero-fill
// permission (Fresh); a flush ack ships contents only when dirty.

func (s supplyMsg) WireBytes() int {
	if s.NoData || s.Fresh {
		return 0
	}
	return vm.PageSize
}

func (a flushAck) WireBytes() int {
	if a.Dirty {
		return vm.PageSize
	}
	return 0
}
