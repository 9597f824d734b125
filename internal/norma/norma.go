// Package norma models Mach NORMA-IPC: the typed-message, port-based IPC
// the NORMA kernel distribution extends across nodes, and which XMM uses as
// its transport. Its defining property for this system is cost: every
// message pays heavy software overhead for typed-message marshalling and
// port-right translation — the paper measures NORMA-IPC at roughly 90 % of
// the latency of an XMM remote page fault.
package norma

import (
	"fmt"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/xport"
)

// Costs are the per-message software costs of NORMA-IPC.
type Costs struct {
	// SendCPU is the sender-side cost: typed-message marshalling, port
	// name lookup, kernel entry.
	SendCPU time.Duration
	// RecvCPU is the receiver-side cost: demarshalling, port translation,
	// thread dispatch.
	RecvCPU time.Duration
	// PortTranslateCPU is paid on each side for translating port rights
	// carried in the message.
	PortTranslateCPU time.Duration
	// PerKBCPU is the copy/marshal cost per KB of payload on each side.
	PerKBCPU time.Duration
	// HeaderBytes is the wire overhead per message (typed-message headers,
	// NORMA interposition records).
	HeaderBytes int

	// RecvBufferMsgs models NORMA's broken flow control in many-to-one
	// scenarios (paper §1): a receiver has this many message buffers; a
	// message arriving with that many already queued is dropped and pays
	// RetransmitDelay before redelivery. Zero disables the model.
	RecvBufferMsgs  int
	RetransmitDelay time.Duration
}

// DefaultCosts returns values calibrated so that one NORMA round trip with
// a page lands near the paper's measured XMM latencies (DESIGN.md §6).
func DefaultCosts() Costs {
	return Costs{
		SendCPU:          400 * time.Microsecond,
		RecvCPU:          450 * time.Microsecond,
		PortTranslateCPU: 150 * time.Microsecond,
		PerKBCPU:         25 * time.Microsecond,
		HeaderBytes:      256,
		RecvBufferMsgs:   32,
		RetransmitDelay:  4 * time.Millisecond,
	}
}

// Transport implements xport.Transport with NORMA-IPC cost modelling.
type Transport struct {
	eng   *sim.Engine
	net   *mesh.Network
	nodes []*node.Node
	costs Costs

	// handlers[node][proto] is the registered handler, nil when absent
	// (dense ProtoID-indexed dispatch; see xport.RegisterProto).
	handlers [][]xport.Handler

	// Stats.
	Msgs        uint64
	Bytes       uint64
	Retransmits uint64
	Nacks       uint64
}

// New builds a NORMA transport over the mesh for the given nodes.
func New(e *sim.Engine, net *mesh.Network, nodes []*node.Node, costs Costs) *Transport {
	return &Transport{
		eng: e, net: net, nodes: nodes, costs: costs,
		handlers: make([][]xport.Handler, len(nodes)),
	}
}

// Name implements xport.Transport.
func (t *Transport) Name() string { return "norma" }

// Register implements xport.Transport.
func (t *Transport) Register(n mesh.NodeID, proto xport.ProtoID, h xport.Handler) {
	row := t.handlers[n]
	for int(proto) >= len(row) {
		row = append(row, nil)
	}
	if row[proto] != nil {
		panic(fmt.Sprintf("norma: duplicate registration %v/%s", n, proto))
	}
	row[proto] = h
	t.handlers[n] = row
}

// lookup returns the handler for (n, proto), nil when unregistered.
func (t *Transport) lookup(n mesh.NodeID, proto xport.ProtoID) xport.Handler {
	if row := t.handlers[n]; int(proto) < len(row) {
		return row[proto]
	}
	return nil
}

// Send implements xport.Transport.
func (t *Transport) Send(src, dst mesh.NodeID, proto xport.ProtoID, payloadBytes int, m interface{}) {
	h := t.lookup(dst, proto)
	if h == nil {
		t.nack(src, dst, proto, payloadBytes, m)
		return
	}
	t.Msgs++
	wire := payloadBytes + t.costs.HeaderBytes
	t.Bytes += uint64(wire)
	perSide := t.costs.PortTranslateCPU + t.perKB(payloadBytes)
	sendCost := t.costs.SendCPU + perSide
	recvCost := t.costs.RecvCPU + perSide
	// Sender message processor, then the wire, then the receiver message
	// processor, then the handler.
	t.nodes[src].MsgProc.Do(sendCost, func() {
		t.net.SendRun(src, dst, wire, wireFn(func() {
			t.deliver(src, dst, recvCost, h, m)
		}))
	})
}

// deliver hands the message to the receiver's message processor, modelling
// the many-to-one buffer exhaustion: when too many messages already queue
// there, this one bounces and is retransmitted after a delay.
func (t *Transport) deliver(src, dst mesh.NodeID, recvCost time.Duration, h xport.Handler, m interface{}) {
	mp := t.nodes[dst].MsgProc
	if t.costs.RecvBufferMsgs > 0 && recvCost > 0 {
		backlog := mp.BusyUntil() - t.eng.Now()
		if backlog > 0 && int(backlog/recvCost) >= t.costs.RecvBufferMsgs {
			t.Retransmits++
			t.eng.Schedule(t.costs.RetransmitDelay, func() {
				t.deliver(src, dst, recvCost, h, m)
			})
			return
		}
	}
	mp.Do(recvCost, func() {
		h(src, m)
	})
}

// nack bounces a message addressed to an unregistered destination back to
// the sender as an xport.Nack (NORMA's dead-port notification): the attempt
// pays the full outbound cost, the rejection comes back as a header-only
// message. Panics if the sender has no handler for the bounce either.
func (t *Transport) nack(src, dst mesh.NodeID, proto xport.ProtoID, payloadBytes int, m interface{}) {
	back := t.lookup(src, proto)
	if back == nil {
		panic(fmt.Sprintf("norma: no handler for %v/%s (and no %v/%s sender handler for the bounce)",
			dst, proto, src, proto))
	}
	t.Nacks++
	t.Msgs += 2
	wire := payloadBytes + t.costs.HeaderBytes
	t.Bytes += uint64(wire + t.costs.HeaderBytes)
	perSide := t.costs.PortTranslateCPU + t.perKB(payloadBytes)
	t.nodes[src].MsgProc.Do(t.costs.SendCPU+perSide, func() {
		t.net.SendRun(src, dst, wire, wireFn(func() {
			t.nodes[dst].MsgProc.Do(t.costs.RecvCPU+perSide, func() {
				t.net.SendRun(dst, src, t.costs.HeaderBytes, wireFn(func() {
					t.nodes[src].MsgProc.Do(t.costs.RecvCPU, func() {
						back(dst, xport.Nack{Dst: dst, Proto: proto, Msg: m})
					})
				}))
			})
		}))
	})
}

// wireFn runs a delivery closure as the mesh's Runnable.
type wireFn func()

func (f wireFn) Run() { f() }

func (t *Transport) perKB(payloadBytes int) time.Duration {
	return time.Duration(float64(payloadBytes) / 1024 * float64(t.costs.PerKBCPU))
}

var _ xport.Transport = (*Transport)(nil)
