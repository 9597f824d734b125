package xmm

import (
	"asvm/internal/mesh"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// Proxy is the XMM representation of a memory object on a node that maps
// it but does not manage it: it forwards the local VM system's EMMI
// requests to the centralized manager and executes the manager's commands
// against the local kernel. (The manager's own node also runs a proxy; its
// traffic loops back through the local transport, modelling local Mach IPC.)
type Proxy struct {
	nd      *Node
	o       *vm.Object
	obj     vm.ObjID
	mgrNode mesh.NodeID

	// capture diverts the kernel's synchronous DataReturn during a
	// manager-commanded flush, so the data rides the flushAck instead of a
	// separate eviction message.
	capturing    bool
	capturedData []byte
	capturedDirt bool
}

// DataRequest implements vm.MemoryManager.
func (p *Proxy) DataRequest(o *vm.Object, idx vm.PageIdx, desired vm.Prot) {
	p.sendReq(idx, desired)
}

// DataUnlock implements vm.MemoryManager.
func (p *Proxy) DataUnlock(o *vm.Object, idx vm.PageIdx, desired vm.Prot) {
	p.sendReq(idx, desired)
}

func (p *Proxy) sendReq(idx vm.PageIdx, want vm.Prot) {
	p.nd.Ctr.V[sim.CtrProxyRequests]++
	p.nd.TR.Send(p.nd.Self, p.mgrNode, Proto, 0,
		accessReq{Obj: p.obj, Idx: idx, Want: want, Origin: p.nd.Self})
}

// DataReturn implements vm.MemoryManager. During a manager-driven flush the
// data is captured into the pending flushAck; otherwise this is a
// node-initiated eviction that must round-trip to the manager.
func (p *Proxy) DataReturn(o *vm.Object, idx vm.PageIdx, data []byte, dirty, kept bool) {
	if p.capturing {
		// A copy: data is the page's frame, the kernel's again (and
		// recyclable) long before the flushAck is read.
		p.capturedData = append([]byte(nil), data...)
		p.capturedDirt = dirty
		return
	}
	payload := 0
	if dirty {
		payload = vm.PageSize
	}
	p.nd.Ctr.V[sim.CtrProxyEvicts]++
	p.nd.TR.Send(p.nd.Self, p.mgrNode, Proto, payload,
		evictMsg{Obj: p.obj, Idx: idx, Dirty: dirty, Data: data, From: p.nd.Self})
}

// Terminate implements vm.MemoryManager.
func (p *Proxy) Terminate(o *vm.Object) {}

// handleSupply executes a manager grant against the local kernel.
func (p *Proxy) handleSupply(msg supplyMsg) {
	switch {
	case msg.NoData:
		p.nd.K.LockGrant(p.o, msg.Idx, msg.Lock)
	case msg.Fresh:
		p.nd.K.DataUnavailable(p.o, msg.Idx, msg.Lock)
	default:
		p.nd.K.DataSupply(p.o, msg.Idx, msg.Data, msg.Lock, false)
	}
}

// handleFlush executes a manager lock/flush command and acks with any
// dirty contents.
func (p *Proxy) handleFlush(msg flushMsg) {
	p.capturing = true
	p.capturedData = nil
	p.capturedDirt = false
	var present bool
	p.nd.K.LockRequest(p.o, msg.Idx, msg.NewLock, false, func(ok bool) { present = ok })
	p.capturing = false
	payload := 0
	if p.capturedDirt {
		payload = vm.PageSize
	}
	p.nd.TR.Send(p.nd.Self, p.mgrNode, Proto, payload, flushAck{
		Obj: p.obj, Idx: msg.Idx, Seq: msg.Seq,
		Present: present, Dirty: p.capturedDirt, Data: p.capturedData,
		From: p.nd.Self,
	})
}

// handleEvictAck frees the local frame once the manager has secured the
// data.
func (p *Proxy) handleEvictAck(msg evictAck) {
	p.nd.K.RemovePage(p.o, msg.Idx)
}

var _ vm.MemoryManager = (*Proxy)(nil)
