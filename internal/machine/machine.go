// Package machine assembles a simulated Paragon-class multicomputer: mesh
// interconnect, per-node kernels and message processors, I/O nodes with
// disks and pagers, and one of the two distributed memory systems (the XMM
// baseline or ASVM). Params holds what experiments vary; the calibrated
// cost constants live in each package's DefaultCosts (mesh, vm, pager, sts,
// norma) and in the Paragon testbed constants below (DESIGN.md §6).
package machine

import (
	"fmt"
	"time"

	"asvm/internal/asvm"
	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/norma"
	"asvm/internal/pager"
	"asvm/internal/sim"
	"asvm/internal/sts"
	"asvm/internal/vm"
	"asvm/internal/xmm"
	"asvm/internal/xport"
)

// System selects the distributed memory system under test.
type System int

// The two systems the paper compares.
const (
	SysASVM System = iota
	SysXMM
)

// String implements fmt.Stringer.
func (s System) String() string {
	if s == SysXMM {
		return "XMM"
	}
	return "ASVM"
}

// Params configures a cluster: what the experiments vary. The cost
// constants, each package's DefaultCosts, were calibrated once against the
// paper's Table 1 ASVM column and sequential EM3D time; see EXPERIMENTS.md.
type Params struct {
	// Nodes is the machine size (Paragon installations: up to 1792;
	// the paper's testbed: 72).
	Nodes int

	// MemMB is physical memory per node (paper: 16 MB GP nodes, ~9 MB
	// usable for user applications after the OS). Zero disables memory
	// limits entirely (microbenchmarks).
	MemMB int

	// MemPages, when nonzero, sets the per-node VM cache capacity directly
	// in pages, overriding MemMB. The schedule explorer uses it to build
	// tiny caches (2–4 pages) where eviction and ownership transfer
	// interleave within a handful of events.
	MemPages int

	// TrackData carries real page contents (correctness tests; large
	// benchmarks run metadata-only).
	TrackData bool

	// System picks ASVM or XMM.
	System System

	ASVM asvm.Config

	// XMMCopyThreads bounds each node's XMM copy-pager thread pool.
	XMMCopyThreads int

	// ASVMOverNorma carries the ASVM protocol over NORMA-IPC instead of
	// the dedicated STS — ablation A2, quantifying the paper's claim that
	// NORMA-IPC accounts for ~90 % of remote fault latency.
	ASVMOverNorma bool

	// Fault injects message drops/duplicates/delays below the reliability
	// layer (chaos runs). An active plan implies Reliable. The zero plan
	// leaves the wire untouched — no wrapper is even installed.
	Fault xport.FaultPlan

	// Reliable layers per-link sequence numbers, acks and retransmission
	// over the transport. Fault and Crash plans turn it on; it can also
	// run alone to measure the layer's overhead on a clean wire.
	Reliable bool

	// Crash schedules crash-stop node failures (and optional restarts) at
	// virtual times. An active plan implies Reliable: peer-down detection
	// and the Nack re-route path live in the reliability layer. The zero
	// plan arms nothing — the no-crash schedule is untouched.
	Crash CrashPlan

	// Seed drives all randomness in workloads.
	Seed uint64
}

// The Paragon testbed's fixed constants: the paper never varies them.
const (
	// OSMemMB is memory reserved for kernel + OS servers per node.
	OSMemMB = 7
	// IORatio is compute nodes per I/O (disk) node.
	IORatio = 32
	// DiskSeek and DiskBytesPerSecond model the I/O node disks (1996
	// SCSI: several ms positioning, a few MB/s sustained). DiskWriteSeek
	// is the pageout positioning cost — paging-space writes also allocate
	// blocks, which made them several times slower than reads and is what
	// the paper's 38 ms XMM rows measure.
	DiskSeek           = 3 * time.Millisecond
	DiskWriteSeek      = 16 * time.Millisecond
	DiskBytesPerSecond = 5e6
)

// DefaultParams returns the calibrated configuration for n nodes.
func DefaultParams(n int) Params {
	return Params{
		Nodes:          n,
		MemMB:          0, // unlimited unless an experiment sets it
		TrackData:      false,
		System:         SysASVM,
		ASVM:           asvm.DefaultConfig(),
		XMMCopyThreads: 64,
		Seed:           1,
	}
}

// UserPages returns the per-node VM cache capacity in pages (0 =
// unlimited).
func (p Params) UserPages() int {
	if p.MemPages > 0 {
		return p.MemPages
	}
	if p.MemMB <= 0 {
		return 0
	}
	usable := p.MemMB - OSMemMB
	if usable < 1 {
		usable = 1
	}
	return usable * (1 << 20) / vm.PageSize
}

// Cluster is an assembled machine.
type Cluster struct {
	P   Params
	Eng *sim.Engine
	Net *mesh.Network
	HW  []*node.Node

	Kerns []*vm.Kernel

	// Transport actually used by the system under test (outermost wrapper).
	TR xport.Transport
	// Wire is the simulated transport under TR: the NORMA-IPC cost row
	// under XMM or ASVMOverNorma (ablation A2), the STS row otherwise.
	Wire *sts.Transport
	// FaultTR/RelTR are the chaos wrappers, nil unless Params enabled them.
	FaultTR *xport.FaultyTransport
	RelTR   *xport.Reliable

	ASVMs []*asvm.Node
	XMMs  []*xmm.Node

	// proto is the O(1) node-lookup handle over ASVMs that the asvm
	// protocol entry points take; built once in New (zero value under XMM).
	proto asvm.Cluster

	// Crash-stop failure model state: which nodes are currently down, what
	// failing them cost, and the regions CrashNode must recover. The
	// registry is only consulted on crash/restart; with an inactive plan
	// and no direct CrashNode calls it is dead weight only.
	crashed    map[int]bool
	regions    []*Region
	CrashStats CrashStats

	// PagingSpace maps each I/O node to its default pager (paging space).
	PagingSpace map[mesh.NodeID]*pager.Server

	RNG *sim.RNG

	barriers *barrierSvc
	nextObj  uint64
}

// New assembles a cluster.
func New(p Params) *Cluster {
	if p.Nodes < 1 {
		panic("machine: need at least one node")
	}
	if p.Crash.Active() || p.Fault.Active() {
		// Crash detection and retransmission live in the reliability layer:
		// without it one dropped message hangs the protocol.
		p.Reliable = true
	}
	e := sim.NewEngine()
	c := &Cluster{
		P:           p,
		Eng:         e,
		Net:         mesh.New(e, p.Nodes, mesh.DefaultConfig(p.Nodes)),
		PagingSpace: make(map[mesh.NodeID]*pager.Server),
		RNG:         sim.NewRNG(p.Seed),
	}
	for i := 0; i < p.Nodes; i++ {
		c.HW = append(c.HW, node.New(e, mesh.NodeID(i)))
	}
	costs := sts.DefaultCosts()
	if p.System == SysXMM || p.ASVMOverNorma {
		costs = norma.DefaultCosts()
	}
	c.Wire = sts.New(e, c.Net, c.HW, costs)
	c.TR = c.Wire
	// Chaos wrappers: reliability over fault injection over the wire, so
	// retransmissions themselves are subject to loss. The fault RNG is a
	// dedicated stream — c.RNG draws stay identical with or without faults.
	if p.Fault.Active() {
		c.FaultTR = xport.NewFaulty(e, c.TR, p.Fault, sim.NewRNG(p.Seed^faultSeedSalt))
		c.TR = c.FaultTR
	}
	if p.Reliable {
		c.RelTR = xport.NewReliable(e, c.TR)
		c.TR = c.RelTR
	}

	// I/O nodes: disks + paging space (default pager). NORMA carries the
	// pager protocol under XMM; STS under ASVM (the pager interface cost
	// difference is part of what the paper measures).
	for i := 0; i < p.Nodes; i += IORatio {
		io := mesh.NodeID(i)
		c.HW[i].AttachDisk(e, DiskSeek, DiskBytesPerSecond).SetWriteSeek(DiskWriteSeek)
		c.PagingSpace[io] = pager.NewServer(e, c.TR, io, c.HW[i].Disk,
			pager.DefaultCosts(), fmt.Sprintf("dp%d", i), p.TrackData)
	}

	for i := 0; i < p.Nodes; i++ {
		k := vm.NewKernel(e, mesh.NodeID(i), vm.DefaultCosts(), vm.NewPhysMem(p.UserPages()), p.TrackData)
		c.Kerns = append(c.Kerns, k)
	}

	switch p.System {
	case SysASVM:
		for i := 0; i < p.Nodes; i++ {
			c.ASVMs = append(c.ASVMs, asvm.NewNode(e, c.Kerns[i], c.TR, p.ASVM))
		}
		c.proto = asvm.NewCluster(c.ASVMs)
	case SysXMM:
		for i := 0; i < p.Nodes; i++ {
			c.XMMs = append(c.XMMs, xmm.NewNode(e, c.Kerns[i], c.TR, p.XMMCopyThreads))
		}
	}
	if p.System == SysASVM && c.RelTR != nil {
		c.wireDownHandlers()
	}
	if p.Crash.Active() {
		c.armCrashPlan()
	}
	c.barriers = newBarrierSvc(c)
	return c
}

// faultSeedSalt decorrelates the fault-injection RNG stream from the
// workload stream derived from the same Params.Seed.
const faultSeedSalt = 0xFA017_C4A05

// CheckInvariants validates a region's global protocol state. The engine
// must be drained first — with the reliability layer active that also means
// every retransmit timer has fired (acknowledged timers are no-ops).
func (c *Cluster) CheckInvariants(r *Region) error {
	if n := c.Eng.Pending(); n != 0 {
		return fmt.Errorf("machine: %d events still pending; drain before checking invariants", n)
	}
	if c.P.System == SysASVM && r.info != nil {
		return asvm.CheckInvariants(c.proto, r.info)
	}
	return nil
}

// ASVMCluster returns the O(1) membership handle over the machine's ASVM
// nodes (zero value under XMM). Diagnostics like the schedule explorer use
// it to call the asvm invariant checkers directly.
func (c *Cluster) ASVMCluster() asvm.Cluster { return c.proto }

// nextID allocates a cluster-level object ID under the given node's
// namespace, numbered above any kernel-local ID.
func (c *Cluster) nextID(home mesh.NodeID) vm.ObjID {
	c.nextObj++
	return vm.ObjID{Node: home, Seq: asvm.DomainSeqBase + c.nextObj}
}

// Region is a shared memory object mapped across a set of nodes.
type Region struct {
	Name      string
	SizePages vm.PageIdx
	ID        vm.ObjID
	Home      int
	Nodes     []int // cluster node indices sharing the region

	objs    map[int]*vm.Object // node index -> local vm object
	info    *asvm.DomainInfo   // ASVM only
	io      pager.PagerIO      // the home's backing store, kept for restart
	nodeSet map[int]bool       // Nodes as a set, for O(1) membership
}

// newNodeSet builds the O(1) membership view of a region's node list.
func newNodeSet(nodeIdxs []int) map[int]bool {
	s := make(map[int]bool, len(nodeIdxs))
	for _, n := range nodeIdxs {
		s[n] = true
	}
	return s
}

// Obj returns the region's vm object on a node.
func (r *Region) Obj(nodeIdx int) *vm.Object { return r.objs[nodeIdx] }

// ASVMInfo returns the region's ASVM domain description (nil under XMM).
// The schedule explorer uses it to run invariant checks against the
// region's cluster-wide state.
func (r *Region) ASVMInfo() *asvm.DomainInfo { return r.info }

// NewSharedRegion creates a shared memory object across the given node
// indices, backed by the home node group's paging space. Under ASVM the
// home is the first listed node; under XMM the first node runs the
// centralized manager.
func (c *Cluster) NewSharedRegion(name string, sizePages vm.PageIdx, nodeIdxs []int) *Region {
	if len(nodeIdxs) == 0 {
		panic("machine: region needs nodes")
	}
	home := mesh.NodeID(nodeIdxs[0])
	backing := c.PagingSpace[pager.IONodeFor(home, c.P.Nodes, IORatio)]
	return c.newRegion(name, sizePages, c.nextID(home), nodeIdxs, pager.NewClient(c.Eng, c.TR, home, backing))
}

// NewMappedFile creates a file-pager-backed shared object (a memory-mapped
// file) on the I/O node serving the home node's group, optionally
// preloading sizePages of content.
func (c *Cluster) NewMappedFile(name string, sizePages vm.PageIdx, nodeIdxs []int, preload bool) (*Region, *pager.Server) {
	home := mesh.NodeID(nodeIdxs[0])
	io := pager.IONodeFor(home, c.P.Nodes, IORatio)
	id := c.nextID(io)
	srv := c.filePager(io, "file-"+name)
	for i := vm.PageIdx(0); preload && i < sizePages; i++ {
		srv.Preload(id, i, nil)
	}
	return c.newRegion(name, sizePages, id, nodeIdxs, pager.NewClient(c.Eng, c.TR, home, srv)), srv
}

// NewStripedFile creates a mapped file striped round-robin across several
// I/O nodes — the paper's §6 future-work file system that combines PFS
// striping with UFS-style mapped-file caching. Each stripe node gets a
// disk (if it lacks one) and a pager server; page i is backed by stripe
// i % len(stripeNodes). The region's home talks to all stripes through one
// round-robin PagerIO and otherwise is a region like any other: crash
// scrub and restart re-wiring included.
func (c *Cluster) NewStripedFile(name string, sizePages vm.PageIdx, nodeIdxs, stripeNodes []int, preload bool) (*Region, []*pager.Server, error) {
	if len(stripeNodes) == 0 {
		return nil, nil, fmt.Errorf("machine: striped file needs stripe nodes")
	}
	home := mesh.NodeID(nodeIdxs[0])
	id := c.nextID(home)
	servers := make([]*pager.Server, len(stripeNodes))
	for i, sn := range stripeNodes {
		servers[i] = c.filePager(mesh.NodeID(sn), fmt.Sprintf("stripe%d-%s", i, name))
	}
	for pg := vm.PageIdx(0); preload && pg < sizePages; pg++ {
		servers[int(pg)%len(servers)].Preload(id, pg, nil)
	}
	return c.newRegion(name, sizePages, id, nodeIdxs, pager.NewStriped(c.Eng, c.TR, home, servers)), servers, nil
}

// filePager starts a file pager on node io, attaching a disk if the node
// lacks one. Like UFS on an I/O node, it buffers file pages in memory.
func (c *Cluster) filePager(io mesh.NodeID, name string) *pager.Server {
	hw := c.HW[io]
	if hw.Disk == nil {
		hw.AttachDisk(c.Eng, DiskSeek, DiskBytesPerSecond).SetWriteSeek(DiskWriteSeek)
	}
	srv := pager.NewServer(c.Eng, c.TR, io, hw.Disk, pager.DefaultCosts(), name, c.P.TrackData)
	srv.CacheInMemory = true
	return srv
}

// newRegion attaches object id to every listed node under the active
// system, with io as the home's backing store, and registers the region
// for crash recovery. The first listed node is the home.
func (c *Cluster) newRegion(name string, sizePages vm.PageIdx, id vm.ObjID, nodeIdxs []int, io pager.PagerIO) *Region {
	r := &Region{
		Name: name, SizePages: sizePages, ID: id, Home: nodeIdxs[0],
		Nodes:   append([]int(nil), nodeIdxs...),
		objs:    make(map[int]*vm.Object),
		io:      io,
		nodeSet: newNodeSet(nodeIdxs),
	}
	switch c.P.System {
	case SysASVM:
		mapping := make([]mesh.NodeID, len(nodeIdxs))
		for i, n := range nodeIdxs {
			mapping[i] = mesh.NodeID(n)
		}
		r.info = asvm.NewDomain(id, sizePages, mapping[0], mapping, c.P.ASVM)
		for _, n := range nodeIdxs {
			c.attach(r, n)
		}
	case SysXMM:
		nodes := make([]*xmm.Node, len(nodeIdxs))
		for i, n := range nodeIdxs {
			nodes[i] = c.XMMs[n]
		}
		for i, o := range xmm.SetupShared(id, sizePages, nodes, 0, io) {
			r.objs[nodeIdxs[i]] = o
		}
	}
	c.regions = append(c.regions, r)
	return r
}

// attach joins node idx to the region's ASVM domain — at setup, and again
// when a crashed node restarts cold — handing the home its backing store.
func (c *Cluster) attach(r *Region, idx int) {
	in := asvm.AddNode(r.info, c.ASVMs[idx])
	if idx == r.Home {
		in.SetPager(r.io)
	}
	r.objs[idx] = in.Obj()
}

// TaskOn creates a task on a node and maps the region at base.
func (c *Cluster) TaskOn(nodeIdx int, name string, r *Region, base vm.Addr) (*vm.Task, error) {
	t := c.Kerns[nodeIdx].NewTask(name)
	o := r.objs[nodeIdx]
	if o == nil {
		return nil, fmt.Errorf("machine: region %s not mapped on node %d", r.Name, nodeIdx)
	}
	if _, err := t.Map.MapObject(base, o, 0, r.SizePages, vm.ProtWrite, vm.InheritShare); err != nil {
		return nil, err
	}
	return t, nil
}

// RemoteFork forks a task across nodes under the active system.
func (c *Cluster) RemoteFork(parent *vm.Task, dstIdx int, name string) (*vm.Task, error) {
	srcIdx := int(parent.Kernel.Node)
	switch c.P.System {
	case SysASVM:
		return asvm.RemoteFork(c.proto, parent, c.ASVMs[dstIdx], name, c.P.ASVM)
	case SysXMM:
		return xmm.RemoteFork(parent, c.XMMs[srcIdx], c.XMMs[dstIdx], name)
	}
	return nil, fmt.Errorf("machine: unknown system")
}

// Spawn starts a proc.
func (c *Cluster) Spawn(name string, fn func(p *sim.Proc)) *sim.Proc {
	return c.Eng.Spawn(name, fn)
}

// Run drives the simulation to completion and returns the final virtual
// time.
func (c *Cluster) Run() sim.Time { return c.Eng.Run() }
