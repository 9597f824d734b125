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
	// manager-commanded flush, so the data rides the flushAck.
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
		p.nd.pools.req.Get(accessReq{Obj: p.obj, Idx: idx, Want: want, Origin: p.nd.Self}))
}

// DataReturn implements vm.MemoryManager. During a manager-driven flush the
// data is captured into the pending flushAck; otherwise the kernel is
// evicting the page, and XMM keeps it resident: the eviction is cancelled.
func (p *Proxy) DataReturn(o *vm.Object, idx vm.PageIdx, data []byte, dirty, kept bool) {
	if !p.capturing {
		p.nd.K.CancelEviction(o, idx)
		return
	}
	// A copy: data is the page's frame, the kernel's again (and
	// recyclable) long before the flushAck is read.
	p.capturedData = append([]byte(nil), data...)
	p.capturedDirt = dirty
}

// handleSupply executes a manager grant against the local kernel.
func (p *Proxy) handleSupply(msg *supplyMsg) {
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
// dirty contents. The page is present exactly when LockRequest would
// report it so: resident and not on its way out.
func (p *Proxy) handleFlush(msg *flushMsg) {
	pg := p.o.Lookup(msg.Idx)
	present := pg != nil && !pg.Evicting
	p.capturing = true
	p.capturedData = nil
	p.capturedDirt = false
	p.nd.K.LockRequest(p.o, msg.Idx, msg.NewLock, false, nil)
	p.capturing = false
	ack := flushAck{
		Obj: p.obj, Idx: msg.Idx, Seq: msg.Seq,
		Present: present, Dirty: p.capturedDirt, Data: p.capturedData,
		From: p.nd.Self,
	}
	p.nd.TR.Send(p.nd.Self, p.mgrNode, Proto, ack.WireBytes(), p.nd.pools.ack.Get(ack))
}

var _ vm.MemoryManager = (*Proxy)(nil)
