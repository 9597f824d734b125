// Package norma models Mach NORMA-IPC: the typed-message, port-based IPC
// the NORMA kernel distribution extends across nodes, and which XMM uses as
// its transport. Its defining property for this system is cost: every
// message pays heavy software overhead for typed-message marshalling and
// port-right translation — the paper measures NORMA-IPC at roughly 90 % of
// the latency of an XMM remote page fault. That cost is simulated, not
// paid on the host: as in sts, a message in flight is a pooled delivery
// stepped through its stages, so the steady-state path allocates nothing.
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

	// pool recycles in-flight delivery objects (engine is single-threaded).
	pool []*delivery

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

// delivery is one message in flight, stepped through its stages by the
// engine as a pooled sim.Runnable, like sts.delivery: sender message
// processor → wire → receiver message processor → handler. A message that
// arrives to full receive buffers is re-armed in its arrival stage after
// RetransmitDelay. The nack stages model the dead-port bounce round trip.
type delivery struct {
	t        *Transport
	src, dst mesh.NodeID
	proto    xport.ProtoID
	h        xport.Handler
	m        interface{}
	wire     int
	recvCost time.Duration
	stage    uint8
}

const (
	stSent        uint8 = iota // sender MsgProc done; enter the wire
	stArrived                  // at dst: bounce if its buffers are full, else receiver MsgProc
	stHandle                   // dispatch to the handler, recycle
	stNackSent                 // nack: sender MsgProc done; enter the wire
	stNackArrived              // nack: at dst; its MsgProc finds the port dead
	stNackBounce               // nack: header-only notification crosses back
	stNackReturn               // nack: back at src; src MsgProc
	stNackHandle               // nack: deliver xport.Nack, recycle
)

// Run implements sim.Runnable.
func (d *delivery) Run() {
	t := d.t
	switch d.stage {
	case stSent:
		d.stage = stArrived
		t.net.SendRun(d.src, d.dst, d.wire, d)
	case stArrived:
		// Many-to-one buffer exhaustion: when too many messages already
		// queue at the receiver's message processor, this one bounces and
		// is retransmitted after a delay, arriving here again.
		mp := t.nodes[d.dst].MsgProc
		if t.costs.RecvBufferMsgs > 0 && d.recvCost > 0 {
			backlog := mp.BusyUntil() - t.eng.Now()
			if backlog > 0 && int(backlog/d.recvCost) >= t.costs.RecvBufferMsgs {
				t.Retransmits++
				t.eng.ScheduleRun(t.costs.RetransmitDelay, d)
				return
			}
		}
		d.stage = stHandle
		mp.DoRun(d.recvCost, d)
	case stHandle:
		h, src, m := d.h, d.src, d.m
		t.put(d)
		h(src, m)
	case stNackSent:
		d.stage = stNackArrived
		t.net.SendRun(d.src, d.dst, d.wire, d)
	case stNackArrived:
		d.stage = stNackBounce
		t.nodes[d.dst].MsgProc.DoRun(d.recvCost, d)
	case stNackBounce:
		d.stage = stNackReturn
		t.net.SendRun(d.dst, d.src, t.costs.HeaderBytes, d)
	case stNackReturn:
		d.stage = stNackHandle
		t.nodes[d.src].MsgProc.DoRun(t.costs.RecvCPU, d)
	case stNackHandle:
		h, dst, proto, m := d.h, d.dst, d.proto, d.m
		t.put(d)
		h(dst, xport.Nack{Dst: dst, Proto: proto, Msg: m})
	}
}

// put recycles d. Callers copy out what they need first: the handler a
// delivery invokes may Send again and reuse d before the call returns.
func (t *Transport) put(d *delivery) {
	d.h = nil
	d.m = nil
	t.pool = append(t.pool, d)
}

// Send implements xport.Transport. A message addressed to an unregistered
// destination bounces back to the sender as an xport.Nack (NORMA's
// dead-port notification): the attempt pays the full outbound cost, the
// rejection comes back as a header-only message. Panics if the sender has
// no handler for the bounce either.
func (t *Transport) Send(src, dst mesh.NodeID, proto xport.ProtoID, payloadBytes int, m interface{}) {
	h, stage := t.lookup(dst, proto), stSent
	if h == nil {
		if h, stage = t.lookup(src, proto), stNackSent; h == nil {
			panic(fmt.Sprintf("norma: no handler for %v/%s (and no %v/%s sender handler for the bounce)",
				dst, proto, src, proto))
		}
		t.Nacks++
		t.Msgs++
		t.Bytes += uint64(t.costs.HeaderBytes)
	}
	t.Msgs++
	wire := payloadBytes + t.costs.HeaderBytes
	t.Bytes += uint64(wire)
	perSide := t.costs.PortTranslateCPU + t.perKB(payloadBytes)
	var d *delivery
	if n := len(t.pool); n > 0 {
		d = t.pool[n-1]
		t.pool = t.pool[:n-1]
	} else {
		d = &delivery{t: t}
	}
	d.src, d.dst, d.proto = src, dst, proto
	d.h, d.m = h, m
	d.wire, d.recvCost = wire, t.costs.RecvCPU+perSide
	d.stage = stage
	t.nodes[src].MsgProc.DoRun(t.costs.SendCPU+perSide, d)
}

func (t *Transport) perKB(payloadBytes int) time.Duration {
	return time.Duration(float64(payloadBytes) / 1024 * float64(t.costs.PerKBCPU))
}

var _ xport.Transport = (*Transport)(nil)
