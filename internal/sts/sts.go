// Package sts is the simulated message path over the Paragon's message
// processors and mesh. Its cost model is a table of two rows, one per
// transport the paper compares (§3.1):
//
//   - DefaultCosts is ASVM's dedicated SVM Transport Service: a fixed
//     32-byte block of untyped data, optionally followed by one 8 KB page.
//     Receive buffers are preallocated (page contents are only ever sent on
//     behalf of a request from their receiver), so the software path is a
//     small fraction of NORMA-IPC's.
//   - norma.DefaultCosts is Mach NORMA-IPC: typed messages with port-right
//     translation and a per-KB marshalling cost, plus the many-to-one
//     receive-buffer exhaustion that makes it retransmit.
//
// Both rows run the same stepper: handlers live in dense per-node slices
// indexed by ProtoID (no string hashing), and a message in flight is a
// pooled delivery object stepped through its stages as a sim.Runnable, so
// the steady-state send/dispatch path allocates nothing.
package sts

import (
	"fmt"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// Costs is one row of the simulated transport's cost table: the
// per-message software costs, on each side of the wire, of one IPC design.
type Costs struct {
	// Name is the cost row's name (Transport.Name, panics, reports).
	Name string
	// SendCPU is the sender-side cost (STS: fill header, DMA start; NORMA:
	// typed-message marshalling, port name lookup, kernel entry).
	SendCPU time.Duration
	// RecvCPU is the receiver-side cost (STS: dispatch from a preallocated
	// buffer; NORMA: demarshalling, port translation, thread dispatch).
	RecvCPU time.Duration
	// PortTranslateCPU is paid on each side for translating port rights
	// carried in the message.
	PortTranslateCPU time.Duration
	// PagePrep is the extra cost on each side when a page accompanies the
	// message (pinning/buffer handoff; contents are not copied).
	PagePrep time.Duration
	// PerKBCPU is the copy/marshal cost per KB of payload on each side.
	PerKBCPU time.Duration
	// HeaderBytes is the wire overhead per message.
	HeaderBytes int

	// RecvBufferMsgs models NORMA's broken flow control in many-to-one
	// scenarios (paper §1): a receiver has this many message buffers; a
	// message arriving with that many already queued is dropped and pays
	// RetransmitDelay before redelivery. Zero disables the model.
	RecvBufferMsgs  int
	RetransmitDelay time.Duration

	// LateDispatch offers the schedule explorer a choice point per message:
	// the receiver's message processor may pick it up one RecvCPU late,
	// letting a concurrently arriving message overtake it in handler order.
	LateDispatch bool
}

// DefaultCosts returns the STS row, calibrated against the paper's ASVM
// latencies (DESIGN.md §6).
func DefaultCosts() Costs {
	return Costs{
		Name:         "sts",
		SendCPU:      50 * time.Microsecond,
		RecvCPU:      60 * time.Microsecond,
		PagePrep:     30 * time.Microsecond,
		HeaderBytes:  32,
		LateDispatch: true,
	}
}

// Transport implements xport.Transport over the mesh with one row of costs.
type Transport struct {
	eng   *sim.Engine
	net   *mesh.Network
	nodes []*node.Node
	costs Costs

	// handlers[node][proto] is the registered handler, nil when absent.
	// Inner slices grow on Register; ProtoIDs are small and dense, so the
	// table stays compact and Send is two indexed loads.
	handlers [][]xport.Handler

	// pool recycles in-flight delivery objects (engine is single-threaded).
	pool []*delivery

	// Stats.
	Msgs        uint64
	PageMsgs    uint64
	Bytes       uint64
	Nacks       uint64
	Retransmits uint64
}

// New builds a transport with the given cost row over the mesh for the
// given nodes.
func New(e *sim.Engine, net *mesh.Network, nodes []*node.Node, costs Costs) *Transport {
	return &Transport{
		eng: e, net: net, nodes: nodes, costs: costs,
		handlers: make([][]xport.Handler, len(nodes)),
	}
}

// Name is the name of the transport's cost row ("sts" or "norma").
func (t *Transport) Name() string { return t.costs.Name }

// Register implements xport.Transport.
func (t *Transport) Register(n mesh.NodeID, proto xport.ProtoID, h xport.Handler) {
	row := t.handlers[n]
	for int(proto) >= len(row) {
		row = append(row, nil)
	}
	if row[proto] != nil {
		panic(fmt.Sprintf("%s: duplicate registration %v/%s", t.costs.Name, n, proto))
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
// engine as a pooled sim.Runnable: sender message processor → wire →
// receiver message processor → handler. A message that arrives to full
// receive buffers is re-armed in its arrival stage after RetransmitDelay.
// The nack stages model the bounce round trip for a destination with no
// handler.
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
	stNackArrived              // nack: at dst; its MsgProc finds no handler
	stNackBounce               // nack: header-only reject crosses back
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

// Send implements xport.Transport. payloadBytes over 0 means a page rides
// along (accounting treats any nonzero payload as page-bearing).
//
// A message addressed to an unregistered destination bounces back to the
// sender's own handler as an xport.Nack: the attempt pays the full outbound
// cost and crosses the wire, and the destination's rejection (STS: no
// mailbox for the channel; NORMA: dead port) comes back as a header-only
// message. Panics only if the sender has no handler either — then the
// bounce has nowhere to go and it is a real protocol bug.
func (t *Transport) Send(src, dst mesh.NodeID, proto xport.ProtoID, payloadBytes int, m interface{}) {
	h, stage := t.lookup(dst, proto), stSent
	if h == nil {
		if h, stage = t.lookup(src, proto), stNackSent; h == nil {
			panic(fmt.Sprintf("%s: no handler for %v/%s (and no %v/%s sender handler for the bounce)",
				t.costs.Name, dst, proto, src, proto))
		}
		t.Nacks++
		t.Msgs++
		t.Bytes += uint64(t.costs.HeaderBytes)
	}
	t.Msgs++
	wire := payloadBytes + t.costs.HeaderBytes
	t.Bytes += uint64(wire)
	perSide := t.costs.PortTranslateCPU + t.perKB(payloadBytes)
	if payloadBytes > 0 {
		t.PageMsgs++
		perSide += t.costs.PagePrep
	}
	recvCost := t.costs.RecvCPU + perSide
	// Choice point (LateDispatch rows, delivered messages only). Free
	// (Choose short-circuits on the nil chooser) in production runs.
	if t.costs.LateDispatch && stage == stSent && t.eng.Choose(sim.ChoiceLatency, 2) == 1 {
		recvCost += t.costs.RecvCPU
	}
	var d *delivery
	if n := len(t.pool); n > 0 {
		d = t.pool[n-1]
		t.pool = t.pool[:n-1]
	} else {
		d = &delivery{t: t}
	}
	d.src, d.dst, d.proto = src, dst, proto
	d.h, d.m = h, m
	d.wire, d.recvCost = wire, recvCost
	d.stage = stage
	t.nodes[src].MsgProc.DoRun(t.costs.SendCPU+perSide, d)
}

func (t *Transport) perKB(payloadBytes int) time.Duration {
	return time.Duration(float64(payloadBytes) / 1024 * float64(t.costs.PerKBCPU))
}

// PageBytes is the payload size callers pass when a message carries one
// page.
const PageBytes = vm.PageSize

var _ xport.Transport = (*Transport)(nil)
