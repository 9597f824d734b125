// Package simhost implements the portable application layer (app.Host,
// app.Env) over the deterministic simulator: machine-assembled clusters,
// vm tasks, and sim procs. The implementation is deliberately a zero-cost
// veneer — every Host call compiles down to exactly the call sequence the
// pre-refactor workloads made (Touch for untracked data, ReadU64/WriteU64
// for tracked, machine.Barrier.Await, p.Sleep, p.Now), in the same order,
// so seed-1 results_full.txt is byte-identical to the direct-driving era.
package simhost

import (
	"fmt"
	"time"

	"asvm/internal/app"
	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// Spec describes one shared object of a world, in mapping order: object
// indices and per-task base addresses follow the slice (object i starts
// at the cumulative page offset of objects 0..i-1).
type Spec struct {
	Name  string
	Pages int64
	// Nodes lists the cluster nodes sharing the object (nil = all). The
	// first listed node is the home (ASVM) or manager (XMM).
	Nodes []int
	// File backs the object with a file pager on the home group's I/O
	// node instead of anonymous paging space; Preload fills it first.
	File    bool
	Preload bool
	// Private creates an anonymous object on the home node, mapped
	// copy-inherit into that node's task only — the Figure 11 fork-chain
	// shape. Private objects propagate through Host.Fork.
	Private bool
}

// World is a simulated mesh with its shared objects laid out, handing out
// app.Host views to workload threads. Tasks are one per node, mapping
// every object the node shares at the spec-order base addresses.
//
// SPMD workloads create barriers and Prepare their nodes before Run. A
// single-driver workload may instead let Host calls create tasks lazily
// mid-run — task creation and mapping schedule no events, so the executed
// schedule is identical either way.
type World struct {
	C *machine.Cluster

	specs    []Spec
	bases    []vm.Addr
	regions  []*machine.Region // per spec; nil for Private
	privObjs []*vm.Object      // per spec; nil unless Private
	tasks    []*vm.Task
	barriers map[int]*machine.Barrier
	nextBar  int
	errs     []error
}

// NewWorld lays the objects out on an assembled cluster.
func NewWorld(c *machine.Cluster, specs []Spec) (*World, error) {
	w := &World{
		C:        c,
		specs:    specs,
		tasks:    make([]*vm.Task, c.P.Nodes),
		barriers: make(map[int]*machine.Barrier),
	}
	var base vm.Addr
	for _, sp := range specs {
		if sp.Pages <= 0 {
			return nil, fmt.Errorf("simhost: object %q needs pages", sp.Name)
		}
		nodes := sp.Nodes
		if nodes == nil {
			nodes = allNodes(c.P.Nodes)
		}
		w.bases = append(w.bases, base)
		base += vm.Addr(sp.Pages) * vm.PageSize
		switch {
		case sp.Private:
			w.regions = append(w.regions, nil)
			w.privObjs = append(w.privObjs, c.Kerns[nodes[0]].NewAnonymous(vm.PageIdx(sp.Pages)))
		case sp.File:
			r, _ := c.NewMappedFile(sp.Name, vm.PageIdx(sp.Pages), nodes, sp.Preload)
			w.regions = append(w.regions, r)
			w.privObjs = append(w.privObjs, nil)
		default:
			w.regions = append(w.regions, c.NewSharedRegion(sp.Name, vm.PageIdx(sp.Pages), nodes))
			w.privObjs = append(w.privObjs, nil)
		}
	}
	return w, nil
}

func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Region returns an object's machine region (nil for Private objects) so
// sim-side harnesses can run protocol-state validation after a drain.
func (w *World) Region(obj int) *machine.Region { return w.regions[obj] }

// Prepare creates the nodes' tasks (with every shared object mapped) up
// front — required before Run for SPMD workloads, and the way to pin the
// task-creation order when it matters for trace readability.
func (w *World) Prepare(nodes ...int) error {
	for _, n := range nodes {
		if _, err := w.task(n); err != nil {
			return err
		}
	}
	return nil
}

// task returns the node's task, creating and mapping it on first use.
func (w *World) task(node int) (*vm.Task, error) {
	if t := w.tasks[node]; t != nil {
		return t, nil
	}
	t := w.C.Kerns[node].NewTask(fmt.Sprintf("app%d", node))
	for i, sp := range w.specs {
		nodes := sp.Nodes
		if nodes == nil {
			nodes = allNodes(w.C.P.Nodes)
		}
		if sp.Private {
			if nodes[0] == node {
				if _, err := t.Map.MapObject(w.bases[i], w.privObjs[i], 0,
					vm.PageIdx(sp.Pages), vm.ProtWrite, vm.InheritCopy); err != nil {
					return nil, err
				}
			}
			continue
		}
		o := w.regions[i].Obj(node)
		if o == nil {
			continue // the node does not share this object
		}
		if _, err := t.Map.MapObject(w.bases[i], o, 0,
			vm.PageIdx(sp.Pages), vm.ProtWrite, vm.InheritShare); err != nil {
			return nil, err
		}
	}
	w.tasks[node] = t
	return t, nil
}

// NewBarrier registers a mesh-wide barrier (one thread per node) and
// returns its id for Host.Barrier. Call before Run.
func (w *World) NewBarrier() int {
	w.nextBar++
	w.barriers[w.nextBar] = w.C.NewBarrier(allNodes(w.C.P.Nodes))
	return w.nextBar
}

// GoOn starts a workload thread bound to the given node: one per node for
// SPMD workloads, or a single driver that hops nodes with Host.On (the
// Table 1 microbenchmarks drive the whole mesh from one thread).
func (w *World) GoOn(node int, name string, body func(h app.Host) error) {
	idx := len(w.errs)
	w.errs = append(w.errs, nil)
	w.C.Spawn(name, func(p *sim.Proc) {
		if err := body(host{w: w, p: p, node: node}); err != nil {
			w.errs[idx] = err
		}
	})
}

// Run drives the simulation to completion and returns the first error any
// thread reported, in start order.
func (w *World) Run() error {
	w.C.Run()
	errs := w.errs
	w.errs = nil
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// host binds a World and a running proc to one node. It is the app.Host
// the simulator hands workload threads.
type host struct {
	w    *World
	p    *sim.Proc
	node int
}

func (h host) NodeID() int   { return h.node }
func (h host) NumNodes() int { return h.w.C.P.Nodes }

func (h host) On(node int) app.Host { return host{w: h.w, p: h.p, node: node} }

// Open ensures the node's task exists (all objects map at task creation,
// so per-object attach is free — like the scale generator's up-front
// mappings, Open/Close gate which objects a tenant touches).
func (h host) Open(obj int) error {
	_, err := h.w.task(h.node)
	return err
}

func (h host) Close(obj int) error { return nil }

func (h host) Read(obj int, off int64) (uint64, error) {
	t, err := h.w.task(h.node)
	if err != nil {
		return 0, err
	}
	addr := h.w.bases[obj] + vm.Addr(off)
	if h.w.C.P.TrackData {
		return t.ReadU64(h.p, addr)
	}
	_, err = t.Touch(h.p, addr, vm.ProtRead)
	return 0, err
}

func (h host) Write(obj int, off int64, val uint64) error {
	t, err := h.w.task(h.node)
	if err != nil {
		return err
	}
	addr := h.w.bases[obj] + vm.Addr(off)
	if h.w.C.P.TrackData {
		return t.WriteU64(h.p, addr, val)
	}
	_, err = t.Touch(h.p, addr, vm.ProtWrite)
	return err
}

func (h host) Lock(obj int, lo, hi int64) error {
	r := h.w.regions[obj]
	if r == nil || h.w.C.P.System != machine.SysASVM {
		return app.ErrUnsupported
	}
	t, err := h.w.task(h.node)
	if err != nil {
		return err
	}
	in := h.w.C.ASVMs[h.node].Instance(r.ID)
	if in == nil {
		return fmt.Errorf("simhost: node %d has no instance of %q", h.node, r.Name)
	}
	return in.AcquireRange(h.p, t, h.w.bases[obj], vm.PageIdx(lo), vm.PageIdx(hi))
}

func (h host) Unlock(obj int, lo, hi int64) error {
	r := h.w.regions[obj]
	if r == nil || h.w.C.P.System != machine.SysASVM {
		return app.ErrUnsupported
	}
	in := h.w.C.ASVMs[h.node].Instance(r.ID)
	if in == nil {
		return fmt.Errorf("simhost: node %d has no instance of %q", h.node, r.Name)
	}
	return in.ReleaseRange(vm.PageIdx(lo), vm.PageIdx(hi))
}

// Fork copies this node's task to another node under the active system's
// copy semantics and rebinds the destination node to the child.
func (h host) Fork(node int, name string) (app.Host, error) {
	t, err := h.w.task(h.node)
	if err != nil {
		return nil, err
	}
	child, err := h.w.C.RemoteFork(t, node, name)
	if err != nil {
		return nil, err
	}
	h.w.tasks[node] = child
	return host{w: h.w, p: h.p, node: node}, nil
}

func (h host) Barrier(id int) error {
	b := h.w.barriers[id]
	if b == nil {
		return fmt.Errorf("simhost: barrier %d was never created", id)
	}
	b.Await(h.p, h.node)
	return nil
}

func (h host) Now() time.Duration    { return h.p.Now() }
func (h host) Sleep(d time.Duration) { h.p.Sleep(d) }
