package dsm

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"asvm/internal/asvm"
	"asvm/internal/mesh"
	"asvm/internal/pager"
	"asvm/internal/rt"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport/netx"
)

// testDial, when non-nil, replaces outbound connection establishment for
// every Node subsequently Opened — PipeMesh wires a whole mesh out of
// net.Pipe ends instead of sockets. Never set outside test scaffolding.
var testDial func(addr string) (net.Conn, error)

// opTimeout bounds one Read/Write/Lock against a mesh that has lost the
// nodes the operation needs. The protocol's own typed failure grants
// normally answer much sooner; this is the backstop.
const opTimeout = 30 * time.Second

// Node is one live mesh member: an ASVM runtime on the wall clock, its
// TCP transport, and a task with the shared region mapped at address 0.
type Node struct {
	Cfg  *MeshConfig
	Self mesh.NodeID

	loop *rt.Loop
	eng  *sim.Engine
	tr   *netx.Transport
	kern *vm.Kernel
	asn  *asvm.Node
	inst *asvm.Instance
	task *vm.Task

	// idle holds the parked op procs, most recently used last; each is
	// represented by the future it waits on, and completing that future
	// with an op is how the op is handed over. Engine owner only.
	idle []*sim.FutureOf[func(*sim.Proc)]

	calls sync.Pool // *opCall, see do

	opTimeout time.Duration // opTimeout, except in tests that shorten it
}

// Open assembles and starts the mesh node with the given ID: transport
// listening, protocol runtime attached to the shared region, clock
// running. The peer processes do not need to be up yet — connections are
// dialed lazily on first send, and a peer that is down answers with the
// protocol's own Nack fallback.
func Open(cfg *MeshConfig, self int) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := cfg.Node(self)
	if spec == nil {
		return nil, fmt.Errorf("dsm: node %d is not in the mesh config", self)
	}

	n := &Node{Cfg: cfg, Self: mesh.NodeID(self), opTimeout: opTimeout}
	n.eng = sim.NewEngine()
	n.loop = rt.NewLoop(n.eng)

	peers := make(map[mesh.NodeID]string)
	for _, ns := range cfg.Nodes {
		if ns.ID != self {
			peers[mesh.NodeID(ns.ID)] = ns.Xport
		}
	}
	xcfg := netx.Config{
		Self:   n.Self,
		Peers:  peers,
		Listen: spec.Xport,
	}
	if testDial != nil {
		// Loopback tests wire the mesh from net.Pipe: no listener, and
		// every outbound dial lands in another in-process transport.
		xcfg.Listen = ""
		xcfg.Dial = testDial
	}
	n.tr = netx.New(n.loop, xcfg)
	if err := n.tr.Start(); err != nil {
		return nil, fmt.Errorf("dsm: node %d transport: %w", self, err)
	}

	// The node joins its domain the way a simulated node does (asvm.Join,
	// asvm.MapShared), one node's worth, with the peers across sockets
	// instead of in-process. What is the mesh's own: netx, zero costs, the
	// sorted-ID ring and a pager in the home's process. Costs are zero
	// because on the wall clock modelled 1996 CPU charges would just add
	// fixed timer waits to every fault, hiding the thing a real mesh
	// measures (actual compute + wire time); cost constants never change
	// protocol decisions, so counter parity with the simulated twin holds
	// regardless. Data is tracked (the region holds real bytes) and memory
	// is unlimited (the demo measures fault latency, not eviction).
	n.kern = vm.NewKernel(n.eng, n.Self, vm.Costs{}, vm.NewPhysMem(0), true)
	n.asn = asvm.NewNode(n.eng, n.kern, n.tr, asvm.DefaultConfig())

	// Ring order is protocol-significant (static hashing, ring scans):
	// every process must build the identical ring, so it is the sorted
	// node-ID list, independent of config file order.
	ring := make([]mesh.NodeID, 0, len(cfg.Nodes))
	for _, ns := range cfg.Nodes {
		ring = append(ring, mesh.NodeID(ns.ID))
	}
	slices.Sort(ring)
	home := mesh.NodeID(cfg.Home)
	var io pager.PagerIO
	if n.Self == home {
		// With no peers involved the pager's traffic is all self-sends, so
		// it needs no wire codec. A nil disk is an infinitely fast backing
		// store — the measured latencies are protocol and wire, not 1996
		// disk seeks.
		srv := pager.NewServer(n.eng, n.tr, home, nil,
			pager.Costs{}, fmt.Sprintf("dsm-%s", cfg.Region), true)
		io = pager.NewClient(n.eng, n.tr, n.Self, srv)
	}
	info := asvm.NewDomain(asvm.SharedID(home, 1), vm.PageIdx(cfg.Pages), home, ring, asvm.DefaultConfig())
	n.inst = asvm.Join(info, n.asn, io)
	n.task = n.kern.NewTask(fmt.Sprintf("dsm%d", self))
	if err := asvm.MapShared(n.task, 0, n.inst.Obj()); err != nil {
		n.tr.Close()
		return nil, fmt.Errorf("dsm: mapping region: %w", err)
	}

	n.loop.Start(context.Background())
	return n, nil
}

// Addr returns the transport listen address (resolved, useful with ":0").
func (n *Node) Addr() string {
	if a := n.tr.Addr(); a != nil {
		return a.String()
	}
	return ""
}

// opCall is do's per-call state, reused across calls: the result channel,
// the backstop timer, and the closure that starts fn on an op proc.
type opCall struct {
	fn    func(p *sim.Proc) error
	done  chan error
	timer *time.Timer
	start func() // on the engine: hand an op proc "done <- fn(p)"
}

// do runs one operation on an op proc of the protocol engine and measures
// its wall-clock latency — hand-over included, exactly what a libdsm caller
// would observe. On an idle engine the op starts on this goroutine (done is
// buffered), so a local hit never leaves it; an op that parks on a fault is
// finished by whoever delivers its grant.
func (n *Node) do(name string, fn func(p *sim.Proc) error) (time.Duration, error) {
	c, _ := n.calls.Get().(*opCall)
	if c == nil {
		c = &opCall{done: make(chan error, 1), timer: time.NewTimer(n.opTimeout)}
		run := func(p *sim.Proc) { c.done <- c.fn(p) }
		c.start = func() { n.startOp(run) }
	}
	c.timer.Reset(n.opTimeout)
	c.fn = fn
	start := time.Now()
	n.loop.Do(c.start)
	select {
	case err := <-c.done:
		lat := time.Since(start)
		// Only a call whose timer never fired goes back to the pool: an op
		// that outlives its timeout reports to a channel nobody reads,
		// never to the next caller.
		if c.timer.Stop() {
			c.fn = nil
			n.calls.Put(c)
		}
		return lat, err
	case <-c.timer.C:
		return time.Since(start), fmt.Errorf("dsm: %s timed out after %v", name, n.opTimeout)
	}
}

// startOp hands op to a parked op proc, spawning one only when none is
// idle: the pool grows to the peak number of concurrent ops and its procs
// keep their grown stacks, so the steady state creates no goroutine and
// copies no stack per op. Runs on the engine's owner.
func (n *Node) startOp(op func(*sim.Proc)) {
	if k := len(n.idle); k > 0 {
		next := n.idle[k-1]
		n.idle = n.idle[:k-1]
		next.Set(op)
		return
	}
	next := sim.NewFutureOf[func(*sim.Proc)](n.eng)
	n.eng.Spawn("op", func(p *sim.Proc) {
		for {
			op(p)
			next.Reinit(n.eng)
			n.idle = append(n.idle, next)
			op = next.Wait(p)
		}
	})
}

// Read fetches the u64 at addr in the shared region, faulting the page in
// across the mesh if needed. Returns the value and the wall latency.
func (n *Node) Read(addr vm.Addr) (uint64, time.Duration, error) {
	var val uint64
	lat, err := n.do("read", func(p *sim.Proc) error {
		v, err := n.task.ReadU64(p, addr)
		val = v
		return err
	})
	return val, lat, err
}

// Write stores a u64 at addr, acquiring page ownership across the mesh if
// needed. Returns the wall latency.
func (n *Node) Write(addr vm.Addr, v uint64) (time.Duration, error) {
	return n.do("write", func(p *sim.Proc) error {
		return n.task.WriteU64(p, addr, v)
	})
}

// Lock acquires the region's pages [lo, hi) for exclusive use (ASVM range
// locks ride the ownership protocol). Returns the wall latency.
func (n *Node) Lock(lo, hi int64) (time.Duration, error) {
	return n.do("lock", func(p *sim.Proc) error {
		return n.inst.AcquireRange(p, n.task, 0, vm.PageIdx(lo), vm.PageIdx(hi))
	})
}

// Unlock releases pages [lo, hi).
func (n *Node) Unlock(lo, hi int64) (time.Duration, error) {
	return n.do("unlock", func(p *sim.Proc) error {
		return n.inst.ReleaseRange(vm.PageIdx(lo), vm.PageIdx(hi))
	})
}

// Quiet reports whether this node is locally drained: no queued engine
// events and nothing outstanding in the transport. Frames in flight on
// the wire are invisible to both endpoints, so mesh-wide drain detection
// must see every node quiet with stable counters over a window, not one
// Quiet reading (see DrainPollers).
func (n *Node) Quiet() bool {
	quiet := false
	ok := n.loop.Call(func() {
		quiet = n.eng.Pending() == 0
	})
	return ok && quiet && n.tr.Outstanding() == 0
}

// QuietFrames implements QuietPoller in-process: local drain state plus
// total frame traffic, the same pair the control plane's quiet op
// reports.
func (n *Node) QuietFrames() (bool, uint64, error) {
	st := n.TransportStats()
	return n.Quiet(), st.FramesSent + st.FramesRecv, nil
}

// Counters returns the node's merged protocol counters: the kernel's
// (faults, zero fills) and the ASVM runtime's (messages, invalidations),
// by name. The sets are disjoint, so merging is a plain union.
func (n *Node) Counters() map[string]int64 {
	out := make(map[string]int64)
	n.loop.Call(func() {
		n.kern.Ctr.AddTo(out)
		n.asn.Ctr.AddTo(out)
	})
	return out
}

// TransportStats returns the netx traffic counters.
func (n *Node) TransportStats() netx.Stats { return n.tr.Stats() }

// Close stops the node: clock first (no more protocol progress), then the
// op procs — parked in the pool or mid-operation, they are unwound rather
// than left pinning their goroutines and the node — then the transport
// (peers see clean EOFs or bounces).
func (n *Node) Close() {
	n.loop.Stop()
	n.eng.KillProcs()
	n.tr.Close()
}
