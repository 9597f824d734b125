package xmm

import (
	"testing"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/norma"
	"asvm/internal/pager"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// cluster is a minimal XMM test fixture.
type cluster struct {
	eng   *sim.Engine
	net   *mesh.Network
	tr    xport.Transport
	hw    []*node.Node
	kerns []*vm.Kernel
	xmms  []*Node
}

func newCluster(t *testing.T, n int, memPages int) *cluster {
	t.Helper()
	return buildCluster(n, memPages, true)
}

// buildCluster is newCluster with the kernels' data tracking chosen.
func buildCluster(n int, memPages int, trackData bool) *cluster {
	e := sim.NewEngine()
	net := mesh.New(e, n, mesh.DefaultConfig(n))
	hw := make([]*node.Node, n)
	for i := range hw {
		hw[i] = node.New(e, mesh.NodeID(i))
	}
	tr := norma.New(e, net, hw, norma.DefaultCosts())
	c := &cluster{eng: e, net: net, tr: tr, hw: hw}
	for i := 0; i < n; i++ {
		k := vm.NewKernel(e, mesh.NodeID(i), vm.DefaultCosts(), vm.NewPhysMem(memPages), trackData)
		c.kerns = append(c.kerns, k)
		c.xmms = append(c.xmms, NewNode(e, k, tr, 16))
	}
	return c
}

// shared sets up a shared object across all nodes and returns per-node
// tasks mapping it at address 0. Its backing store is a free pager on
// node 0: no disk, no costs.
func (c *cluster) shared(t *testing.T, sizePages vm.PageIdx) []*vm.Task {
	t.Helper()
	id := vm.ObjID{Node: 0, Seq: 9000}
	srv := pager.NewServer(c.eng, c.tr, 0, nil, pager.Costs{}, "mem", true)
	objs := SetupShared(id, sizePages, c.xmms, 0, pager.NewClient(c.eng, c.tr, c.xmms[0].Self, srv))
	tasks := make([]*vm.Task, len(c.xmms))
	for i, x := range c.xmms {
		task := x.K.NewTask("t")
		if _, err := task.Map.MapObject(0, objs[i], 0, sizePages, vm.ProtWrite, vm.InheritShare); err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	return tasks
}

// run drives fn on a proc and the engine to completion.
func (c *cluster) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	c.eng.Spawn("test", func(p *sim.Proc) { err = fn(p) })
	c.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestXMMWriteThenRemoteRead(t *testing.T) {
	c := newCluster(t, 4, 0)
	tasks := c.shared(t, 8)
	c.run(t, func(p *sim.Proc) error {
		if err := tasks[1].WriteU64(p, 0, 4242); err != nil {
			return err
		}
		v, err := tasks[2].ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 4242 {
			t.Errorf("remote read %d, want 4242", v)
		}
		return nil
	})
	// The NMK13 quirk: the dirty page went through paging space on the
	// first remote request.
	if c.xmms[0].Ctr.Get("mgr_dirty_to_pager") != 1 {
		t.Errorf("dirty-to-pager = %d, want 1", c.xmms[0].Ctr.Get("mgr_dirty_to_pager"))
	}
}

func TestXMMSingleWriterInvariant(t *testing.T) {
	c := newCluster(t, 4, 0)
	tasks := c.shared(t, 4)
	c.run(t, func(p *sim.Proc) error {
		// Several nodes read, then one writes: all read copies must be
		// flushed before the write is granted.
		if err := tasks[0].WriteU64(p, 0, 1); err != nil {
			return err
		}
		for i := 1; i < 4; i++ {
			if _, err := tasks[i].ReadU64(p, 0); err != nil {
				return err
			}
		}
		if err := tasks[3].WriteU64(p, 0, 2); err != nil {
			return err
		}
		// After the write, no other node may still have the page.
		for i := 0; i < 3; i++ {
			if c.kerns[i].Object(vm.ObjID{Node: 0, Seq: 9000}).Resident(0) {
				t.Errorf("node %d still has the page after remote write", i)
			}
		}
		v, err := tasks[1].ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 2 {
			t.Errorf("read %d after write, want 2", v)
		}
		return nil
	})
}

func TestXMMSequentialConsistencySweep(t *testing.T) {
	c := newCluster(t, 4, 0)
	tasks := c.shared(t, 2)
	c.run(t, func(p *sim.Proc) error {
		// Ping-pong increments across all nodes; every node must always
		// see the latest value.
		want := uint64(0)
		for round := 0; round < 12; round++ {
			w := round % 4
			v, err := tasks[w].ReadU64(p, 8)
			if err != nil {
				return err
			}
			if v != want {
				t.Errorf("round %d: node %d read %d, want %d", round, w, v, want)
			}
			want++
			if err := tasks[w].WriteU64(p, 8, want); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestXMMUpgradeCheaperThanFullWrite(t *testing.T) {
	c := newCluster(t, 3, 0)
	tasks := c.shared(t, 4)
	var fullWrite, upgrade time.Duration
	// Matched scenarios: read copies at nodes {1, 2} (the writer's
	// downgraded copy plus one reader); the faulter either holds one of
	// them (upgrade) or none (full write fault).
	setup := func(p *sim.Proc) error {
		if err := tasks[1].WriteU64(p, 0, 1); err != nil {
			return err
		}
		_, err := tasks[2].ReadU64(p, 0)
		return err
	}
	c.run(t, func(p *sim.Proc) error {
		if err := setup(p); err != nil {
			return err
		}
		// Upgrade: node 2 already holds a read copy.
		t0 := p.Now()
		if err := tasks[2].WriteU64(p, 0, 2); err != nil {
			return err
		}
		upgrade = p.Now() - t0
		// Rebuild the same pre-state with copies at {1, 2}.
		if _, err := tasks[1].ReadU64(p, 0); err != nil {
			return err
		}
		// Full write fault: node 0 holds nothing.
		t0 = p.Now()
		if err := tasks[0].WriteU64(p, 0, 3); err != nil {
			return err
		}
		fullWrite = p.Now() - t0
		return nil
	})
	if upgrade >= fullWrite {
		t.Fatalf("upgrade (%v) not cheaper than full write fault (%v)", upgrade, fullWrite)
	}
	if c.xmms[0].Ctr.Get("mgr_upgrades") == 0 {
		t.Fatal("no upgrade recorded")
	}
}

func TestXMMWithRealPagerBackingStore(t *testing.T) {
	c := newCluster(t, 4, 0)
	c.hw[0].AttachDisk(c.eng, 5*time.Millisecond, 5e6)
	srv := pager.NewServer(c.eng, c.tr, 0, c.hw[0].Disk, pager.DefaultCosts(), "dp", true)
	id := vm.ObjID{Node: 0, Seq: 7}
	objs := SetupShared(id, 8, c.xmms, 0, pager.NewClient(c.eng, c.tr, c.xmms[0].Self, srv))
	t1 := c.xmms[1].K.NewTask("t1")
	t1.Map.MapObject(0, objs[1], 0, 8, vm.ProtWrite, vm.InheritShare)
	t2 := c.xmms[2].K.NewTask("t2")
	t2.Map.MapObject(0, objs[2], 0, 8, vm.ProtWrite, vm.InheritShare)
	c.run(t, func(p *sim.Proc) error {
		if err := t1.WriteU64(p, 0, 77); err != nil {
			return err
		}
		v, err := t2.ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 77 {
			t.Errorf("read %d, want 77", v)
		}
		return nil
	})
	if c.hw[0].Disk.Writes == 0 {
		t.Fatal("dirty page never hit the paging-space disk")
	}
	if !srv.Has(id, 0) {
		t.Fatal("pager has no copy of the flushed page")
	}
}

// TestXMMPressureKeepsPagesResident: XMM does not page out under memory
// pressure. The kernel's evictions of XMM pages are cancelled, so a node
// that writes more pages than it has frames keeps them all, nothing
// reaches the pager, and every value reads back.
func TestXMMPressureKeepsPagesResident(t *testing.T) {
	c := newCluster(t, 2, 6)
	srv := pager.NewServer(c.eng, c.tr, 0, nil, pager.Costs{}, "mem", true)
	objs := SetupShared(vm.ObjID{Node: 0, Seq: 9000}, 16, c.xmms, 0, pager.NewClient(c.eng, c.tr, c.xmms[0].Self, srv))
	task := c.kerns[1].NewTask("t")
	if _, err := task.Map.MapObject(0, objs[1], 0, 16, vm.ProtWrite, vm.InheritShare); err != nil {
		t.Fatal(err)
	}
	c.run(t, func(p *sim.Proc) error {
		for i := 0; i < 16; i++ {
			if err := task.WriteU64(p, vm.Addr(i*vm.PageSize), uint64(100+i)); err != nil {
				return err
			}
		}
		for i := 0; i < 16; i++ {
			v, err := task.ReadU64(p, vm.Addr(i*vm.PageSize))
			if err != nil {
				return err
			}
			if v != uint64(100+i) {
				t.Errorf("page %d = %d, want %d", i, v, 100+i)
			}
		}
		return nil
	})
	if srv.PageOuts != 0 {
		t.Fatalf("%d pages paged out", srv.PageOuts)
	}
	if c.kerns[1].Ctr.Get("evict_cancelled") == 0 {
		t.Fatal("no eviction was cancelled")
	}
}

func TestXMMManagerFootprint(t *testing.T) {
	c := newCluster(t, 8, 0)
	c.shared(t, 1000)
	// 1 byte per page per node: 1000 * 8.
	if fp := c.xmms[0].Footprint(vm.ObjID{Node: 0, Seq: 9000}); fp != 8000 {
		t.Fatalf("footprint = %d, want 8000", fp)
	}
	if fp := c.xmms[1].Footprint(vm.ObjID{Node: 0, Seq: 9000}); fp != 0 {
		t.Fatalf("non-manager footprint = %d", fp)
	}
}

func TestXMMRemoteForkReadsParentData(t *testing.T) {
	c := newCluster(t, 3, 0)
	parent := c.kerns[0].NewTask("parent")
	region := c.kerns[0].NewAnonymous(16)
	parent.Map.MapObject(0, region, 0, 16, vm.ProtWrite, vm.InheritCopy)
	c.run(t, func(p *sim.Proc) error {
		for i := 0; i < 16; i++ {
			if err := parent.WriteU64(p, vm.Addr(i*vm.PageSize), uint64(i*7)); err != nil {
				return err
			}
		}
		child, err := RemoteFork(parent, c.xmms[0], c.xmms[1], "child")
		if err != nil {
			return err
		}
		// Parent writes after the fork must not be visible to the child.
		if err := parent.WriteU64(p, 0, 999999); err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			v, err := child.ReadU64(p, vm.Addr(i*vm.PageSize))
			if err != nil {
				return err
			}
			if v != uint64(i*7) {
				t.Errorf("child page %d = %d, want %d", i, v, i*7)
			}
		}
		// Child writes stay in the child.
		if err := child.WriteU64(p, 8, 123); err != nil {
			return err
		}
		pv, err := parent.ReadU64(p, 8)
		if err != nil {
			return err
		}
		if pv != 0 {
			t.Errorf("parent saw child write: %d", pv)
		}
		return nil
	})
}

func TestXMMRemoteForkChain(t *testing.T) {
	c := newCluster(t, 4, 0)
	parent := c.kerns[0].NewTask("parent")
	region := c.kerns[0].NewAnonymous(4)
	parent.Map.MapObject(0, region, 0, 4, vm.ProtWrite, vm.InheritCopy)
	c.run(t, func(p *sim.Proc) error {
		if err := parent.WriteU64(p, 0, 31337); err != nil {
			return err
		}
		// Chain 0 -> 1 -> 2 -> 3.
		cur := parent
		for i := 1; i < 4; i++ {
			child, err := RemoteFork(cur, c.xmms[i-1], c.xmms[i], "child")
			if err != nil {
				return err
			}
			cur = child
		}
		v, err := cur.ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 31337 {
			t.Errorf("chain end read %d, want 31337", v)
		}
		return nil
	})
	// The fault should have traversed internal pagers on nodes 2 and 1 and 0.
	total := int64(0)
	for _, x := range c.xmms {
		total += x.Ctr.Get("copy_pager_faults")
	}
	if total < 3 {
		t.Fatalf("copy pager faults = %d, want >= 3 (one per hop)", total)
	}
}

func TestXMMChainLatencyGrowsLinearly(t *testing.T) {
	// Fault latency across a copy chain should be lb + n*la (paper Fig 11).
	lat := func(hops int) time.Duration {
		c := newCluster(t, hops+1, 0)
		parent := c.kerns[0].NewTask("parent")
		region := c.kerns[0].NewAnonymous(1)
		parent.Map.MapObject(0, region, 0, 1, vm.ProtWrite, vm.InheritCopy)
		var d time.Duration
		c.run(t, func(p *sim.Proc) error {
			if err := parent.WriteU64(p, 0, 5); err != nil {
				return err
			}
			cur := parent
			for i := 1; i <= hops; i++ {
				child, err := RemoteFork(cur, c.xmms[i-1], c.xmms[i], "child")
				if err != nil {
					return err
				}
				cur = child
			}
			t0 := p.Now()
			if _, err := cur.ReadU64(p, 0); err != nil {
				return err
			}
			d = p.Now() - t0
			return nil
		})
		return d
	}
	l1, l2, l4 := lat(1), lat(2), lat(4)
	if l2 <= l1 || l4 <= l2 {
		t.Fatalf("latency not increasing: %v %v %v", l1, l2, l4)
	}
	// Roughly linear: the per-hop increments should be similar.
	inc1 := l2 - l1
	inc2 := (l4 - l2) / 2
	ratio := float64(inc1) / float64(inc2)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("per-hop cost not linear: %v vs %v", inc1, inc2)
	}
}
