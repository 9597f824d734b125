package asvm

import (
	"testing"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/pager"
	"asvm/internal/sim"
	"asvm/internal/sts"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

type cluster struct {
	eng   *sim.Engine
	net   *mesh.Network
	tr    xport.Transport
	hw    []*node.Node
	kerns []*vm.Kernel
	asvms []*Node
}

func newCluster(t *testing.T, n int, memPages int, cfg Config) *cluster {
	t.Helper()
	e := sim.NewEngine()
	net := mesh.New(e, n, mesh.DefaultConfig(n))
	hw := make([]*node.Node, n)
	for i := range hw {
		hw[i] = node.New(e, mesh.NodeID(i))
	}
	tr := sts.New(e, net, hw, sts.DefaultCosts())
	c := &cluster{eng: e, net: net, tr: tr, hw: hw}
	for i := 0; i < n; i++ {
		k := vm.NewKernel(e, mesh.NodeID(i), vm.DefaultCosts(), vm.NewPhysMem(memPages), true)
		c.kerns = append(c.kerns, k)
		c.asvms = append(c.asvms, NewNode(e, k, tr, cfg))
	}
	return c
}

var sharedID = vm.ObjID{Node: 0, Seq: 5000}

func (c *cluster) shared(t *testing.T, sizePages vm.PageIdx, cfg Config) []*vm.Task {
	t.Helper()
	_, objs := Setup(sharedID, sizePages, c.asvms, 0, nil, cfg)
	tasks := make([]*vm.Task, len(c.asvms))
	for i, a := range c.asvms {
		task := a.K.NewTask("t")
		if _, err := task.Map.MapObject(0, objs[i], 0, sizePages, vm.ProtWrite, vm.InheritShare); err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	return tasks
}

// cl wraps the test cluster's nodes in the O(1) membership handle the
// protocol entry points take.
func (c *cluster) cl() Cluster { return NewCluster(c.asvms) }

func (c *cluster) run(t *testing.T, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	c.eng.Spawn("test", func(p *sim.Proc) { err = fn(p) })
	c.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestASVMWriteThenRemoteRead(t *testing.T) {
	c := newCluster(t, 4, 0, DefaultConfig())
	tasks := c.shared(t, 8, DefaultConfig())
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
	// The writer must own the page; the reader must be on its list.
	in1 := c.asvms[1].Instance(sharedID)
	if !in1.Owns(0) {
		t.Error("writer lost ownership after read grant")
	}
	if !in1.slots[0].readers.Contains(2) {
		t.Error("reader not recorded")
	}
}

func TestASVMOwnershipMigratesOnWrite(t *testing.T) {
	c := newCluster(t, 4, 0, DefaultConfig())
	tasks := c.shared(t, 4, DefaultConfig())
	c.run(t, func(p *sim.Proc) error {
		if err := tasks[0].WriteU64(p, 0, 1); err != nil {
			return err
		}
		if err := tasks[3].WriteU64(p, 0, 2); err != nil {
			return err
		}
		return nil
	})
	if c.asvms[0].Instance(sharedID).Owns(0) {
		t.Error("old writer still owner")
	}
	if !c.asvms[3].Instance(sharedID).Owns(0) {
		t.Error("new writer not owner")
	}
	// The old writer's copy must be gone (single writer).
	if c.kerns[0].Object(sharedID).Resident(0) {
		t.Error("old writer still has the page")
	}
}

func TestASVMSequentialConsistencySweep(t *testing.T) {
	c := newCluster(t, 4, 0, DefaultConfig())
	tasks := c.shared(t, 2, DefaultConfig())
	c.run(t, func(p *sim.Proc) error {
		want := uint64(0)
		for round := 0; round < 16; round++ {
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

func TestASVMInvalidationsOnWrite(t *testing.T) {
	c := newCluster(t, 6, 0, DefaultConfig())
	tasks := c.shared(t, 4, DefaultConfig())
	c.run(t, func(p *sim.Proc) error {
		if err := tasks[0].WriteU64(p, 0, 5); err != nil {
			return err
		}
		for i := 1; i < 6; i++ {
			if _, err := tasks[i].ReadU64(p, 0); err != nil {
				return err
			}
		}
		// Write from node 5 (a reader: upgrade) must invalidate 4 others.
		if err := tasks[5].WriteU64(p, 0, 6); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			if c.kerns[i].Object(sharedID).Resident(0) {
				t.Errorf("node %d kept its copy across invalidation", i)
			}
		}
		v, err := tasks[2].ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 6 {
			t.Errorf("read %d, want 6", v)
		}
		return nil
	})
	total := int64(0)
	for _, a := range c.asvms {
		total += a.Ctr.Get("invalidations")
	}
	if total < 4 {
		t.Fatalf("invalidations = %d, want >= 4", total)
	}
}

func TestASVMUpgradeSendsNoData(t *testing.T) {
	c := newCluster(t, 4, 0, DefaultConfig())
	tasks := c.shared(t, 4, DefaultConfig())
	var full, upgrade time.Duration
	c.run(t, func(p *sim.Proc) error {
		// Scenario A (paper Table 1 row 4): 2 read copies, faulting node
		// has one of them.
		if err := tasks[0].WriteU64(p, 0, 1); err != nil {
			return err
		}
		if _, err := tasks[1].ReadU64(p, 0); err != nil {
			return err
		}
		if _, err := tasks[2].ReadU64(p, 0); err != nil {
			return err
		}
		t0 := p.Now()
		if err := tasks[2].WriteU64(p, 0, 2); err != nil {
			return err
		}
		upgrade = p.Now() - t0
		// Scenario B (row 2): 2 read copies, faulting node has none.
		if _, err := tasks[0].ReadU64(p, 0); err != nil {
			return err
		}
		if _, err := tasks[1].ReadU64(p, 0); err != nil {
			return err
		}
		t0 = p.Now()
		if err := tasks[3].WriteU64(p, 0, 3); err != nil {
			return err
		}
		full = p.Now() - t0
		return nil
	})
	if upgrade >= full {
		t.Fatalf("upgrade (%v) not cheaper than full write (%v)", upgrade, full)
	}
}

func TestASVMDynamicHintsShortcut(t *testing.T) {
	// After an invalidation the reader knows the new owner; its next fault
	// should go straight there (dynamic forwarding).
	c := newCluster(t, 4, 0, DefaultConfig())
	tasks := c.shared(t, 4, DefaultConfig())
	c.run(t, func(p *sim.Proc) error {
		if err := tasks[1].WriteU64(p, 0, 1); err != nil {
			return err
		}
		if _, err := tasks[2].ReadU64(p, 0); err != nil {
			return err
		}
		if err := tasks[3].WriteU64(p, 0, 2); err != nil {
			return err
		}
		// Node 2 was invalidated with NewOwner=3; its hint must say 3.
		if h, ok := c.asvms[2].Instance(sharedID).dyn.Get(0); !ok || h != 3 {
			t.Errorf("dyn hint = %v/%v, want 3", h, ok)
		}
		before := c.asvms[2].Ctr.Get("fwd_dynamic")
		if _, err := tasks[2].ReadU64(p, 0); err != nil {
			return err
		}
		if c.asvms[2].Ctr.Get("fwd_dynamic") != before+1 {
			t.Error("fault did not use the dynamic hint")
		}
		return nil
	})
}

func TestASVMStaticOnlyForwarding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DynamicForwarding = false
	c := newCluster(t, 4, 0, cfg)
	tasks := c.shared(t, 8, cfg)
	c.run(t, func(p *sim.Proc) error {
		want := uint64(0)
		for round := 0; round < 12; round++ {
			w := round % 4
			v, err := tasks[w].ReadU64(p, 0)
			if err != nil {
				return err
			}
			if v != want {
				t.Errorf("round %d read %d want %d", round, v, want)
			}
			want++
			if err := tasks[w].WriteU64(p, 0, want); err != nil {
				return err
			}
		}
		return nil
	})
	st := int64(0)
	for _, a := range c.asvms {
		st += a.Ctr.Get("fwd_static")
		if a.Ctr.Get("fwd_dynamic") != 0 {
			t.Fatal("dynamic forwarding used while disabled")
		}
	}
	if st == 0 {
		t.Fatal("static forwarding never used")
	}
}

func TestASVMGlobalOnlyForwarding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DynamicForwarding = false
	cfg.StaticForwarding = false
	c := newCluster(t, 4, 0, cfg)
	tasks := c.shared(t, 4, cfg)
	c.run(t, func(p *sim.Proc) error {
		want := uint64(0)
		for round := 0; round < 8; round++ {
			w := (round * 3) % 4
			v, err := tasks[w].ReadU64(p, 0)
			if err != nil {
				return err
			}
			if v != want {
				t.Errorf("round %d read %d want %d", round, v, want)
			}
			want++
			if err := tasks[w].WriteU64(p, 0, want); err != nil {
				return err
			}
		}
		return nil
	})
	gl := int64(0)
	for _, a := range c.asvms {
		gl += a.Ctr.Get("fwd_global")
	}
	if gl == 0 {
		t.Fatal("global forwarding never used")
	}
}

func TestASVMTinyDynamicCacheStillCorrect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DynamicCacheSize = 2
	cfg.StaticCacheSize = 2
	c := newCluster(t, 4, 0, cfg)
	tasks := c.shared(t, 32, cfg)
	c.run(t, func(p *sim.Proc) error {
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 32; i++ {
				w := (i + pass) % 4
				if err := tasks[w].WriteU64(p, vm.Addr(i*vm.PageSize), uint64(pass*100+i)); err != nil {
					return err
				}
			}
		}
		for i := 0; i < 32; i++ {
			v, err := tasks[3].ReadU64(p, vm.Addr(i*vm.PageSize))
			if err != nil {
				return err
			}
			if v != uint64(100+i) {
				t.Errorf("page %d = %d, want %d", i, v, 100+i)
			}
		}
		return nil
	})
}

func TestASVMFreshGrantZeroFill(t *testing.T) {
	c := newCluster(t, 4, 0, DefaultConfig())
	tasks := c.shared(t, 4, DefaultConfig())
	c.run(t, func(p *sim.Proc) error {
		v, err := tasks[2].ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 0 {
			t.Errorf("fresh page read %d", v)
		}
		return nil
	})
	fresh := int64(0)
	for _, a := range c.asvms {
		fresh += a.Ctr.Get("fresh_grants")
	}
	if fresh != 1 {
		t.Fatalf("fresh_grants = %d, want 1", fresh)
	}
	// Reader became the page owner (pager would otherwise serve everyone).
	if !c.asvms[2].Instance(sharedID).Owns(0) {
		t.Fatal("fresh reader not owner")
	}
}

func TestASVMFileBackedReads(t *testing.T) {
	c := newCluster(t, 4, 0, DefaultConfig())
	c.hw[0].AttachDisk(c.eng, 5*time.Millisecond, 5e6)
	srv := pager.NewServer(c.eng, c.tr, 0, c.hw[0].Disk, pager.DefaultCosts(), "fp", true)
	srv.CacheInMemory = true
	id := vm.ObjID{Node: 0, Seq: 42}
	data := make([]byte, vm.PageSize)
	data[0] = 0x11
	srv.Preload(id, 0, data)
	_, objs := Setup(id, 8, c.asvms, 0, srv, DefaultConfig())
	t1 := c.asvms[1].K.NewTask("t1")
	t1.Map.MapObject(0, objs[1], 0, 8, vm.ProtWrite, vm.InheritShare)
	t2 := c.asvms[2].K.NewTask("t2")
	t2.Map.MapObject(0, objs[2], 0, 8, vm.ProtWrite, vm.InheritShare)
	c.run(t, func(p *sim.Proc) error {
		pg, err := t1.Touch(p, 0, vm.ProtRead)
		if err != nil {
			return err
		}
		if pg.Data[0] != 0x11 {
			t.Error("file contents lost")
		}
		// Second reader must be served by the first (owner), not the
		// pager.
		ins := srv.PageIns
		pg2, err := t2.Touch(p, 0, vm.ProtRead)
		if err != nil {
			return err
		}
		if pg2.Data[0] != 0x11 {
			t.Error("second reader got wrong data")
		}
		if srv.PageIns != ins {
			t.Error("second read went to the pager despite a live owner")
		}
		return nil
	})
}

func TestASVMEvictionOwnershipToReader(t *testing.T) {
	// Owner under memory pressure hands ownership to a reader without
	// sending contents (internode paging step 2).
	c := newCluster(t, 3, 0, DefaultConfig())
	tasks := c.shared(t, 4, DefaultConfig())
	c.run(t, func(p *sim.Proc) error {
		if err := tasks[0].WriteU64(p, 0, 99); err != nil {
			return err
		}
		if _, err := tasks[1].ReadU64(p, 0); err != nil {
			return err
		}
		// Force-evict on node 0 by driving the eviction path directly.
		in0 := c.asvms[0].Instance(sharedID)
		pg := c.kerns[0].Object(sharedID).Lookup(0)
		in0.DataReturn(in0.Obj(), 0, pg.Data, pg.Dirty, false)
		p.Sleep(50 * time.Millisecond)
		if in0.Owns(0) {
			t.Error("evictor still owner")
		}
		if !c.asvms[1].Instance(sharedID).Owns(0) {
			t.Error("reader did not take ownership")
		}
		v, err := tasks[2].ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 99 {
			t.Errorf("content lost in ownership transfer: %d", v)
		}
		return nil
	})
	if c.asvms[0].Ctr.Get("evict_owner_xfer") != 1 {
		t.Fatalf("evict_owner_xfer = %d", c.asvms[0].Ctr.Get("evict_owner_xfer"))
	}
}

func TestASVMEvictionPageTransfer(t *testing.T) {
	// No readers: the page moves to another mapping node with free memory
	// (internode paging step 3) — the cluster memory acts as a cache.
	c := newCluster(t, 3, 8, DefaultConfig())
	tasks := c.shared(t, 16, DefaultConfig())
	c.run(t, func(p *sim.Proc) error {
		for i := 0; i < 16; i++ {
			if err := tasks[0].WriteU64(p, vm.Addr(i*vm.PageSize), uint64(500+i)); err != nil {
				return err
			}
		}
		p.Sleep(100 * time.Millisecond)
		for i := 0; i < 16; i++ {
			v, err := tasks[0].ReadU64(p, vm.Addr(i*vm.PageSize))
			if err != nil {
				return err
			}
			if v != uint64(500+i) {
				t.Errorf("page %d = %d, want %d", i, v, 500+i)
			}
		}
		return nil
	})
	if c.asvms[0].Ctr.Get("evict_page_xfer") == 0 {
		t.Fatal("no internode page transfers happened")
	}
	if c.kerns[0].Mem.ResidentPages > 8 {
		t.Fatalf("node 0 resident = %d", c.kerns[0].Mem.ResidentPages)
	}
}

func TestASVMEvictionToPagerWhenAllFull(t *testing.T) {
	// All nodes under pressure: pages end up at the home's backing store
	// (internode paging step 4) and come back on demand.
	c := newCluster(t, 2, 6, DefaultConfig())
	tasks := c.shared(t, 24, DefaultConfig())
	c.run(t, func(p *sim.Proc) error {
		for i := 0; i < 24; i++ {
			if err := tasks[1].WriteU64(p, vm.Addr(i*vm.PageSize), uint64(i+1)); err != nil {
				return err
			}
		}
		p.Sleep(200 * time.Millisecond)
		for i := 0; i < 24; i++ {
			v, err := tasks[1].ReadU64(p, vm.Addr(i*vm.PageSize))
			if err != nil {
				return err
			}
			if v != uint64(i+1) {
				t.Errorf("page %d = %d, want %d", i, v, i+1)
			}
		}
		return nil
	})
	toPager := c.asvms[0].Ctr.Get("evict_to_pager") + c.asvms[1].Ctr.Get("evict_to_pager")
	if toPager == 0 {
		t.Fatal("no pages went to the pager under full-cluster pressure")
	}
}

func TestASVMRemoteForkReadsParentData(t *testing.T) {
	c := newCluster(t, 3, 0, DefaultConfig())
	parent := c.kerns[0].NewTask("parent")
	region := c.kerns[0].NewAnonymous(8)
	parent.Map.MapObject(0, region, 0, 8, vm.ProtWrite, vm.InheritCopy)
	c.run(t, func(p *sim.Proc) error {
		for i := 0; i < 8; i++ {
			if err := parent.WriteU64(p, vm.Addr(i*vm.PageSize), uint64(i*3)); err != nil {
				return err
			}
		}
		child, err := RemoteFork(c.cl(), parent, c.asvms[1], "child", DefaultConfig())
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			v, err := child.ReadU64(p, vm.Addr(i*vm.PageSize))
			if err != nil {
				return err
			}
			if v != uint64(i*3) {
				t.Errorf("child page %d = %d, want %d", i, v, i*3)
			}
		}
		return nil
	})
}

func TestASVMRemoteForkCopyIsolation(t *testing.T) {
	c := newCluster(t, 3, 0, DefaultConfig())
	parent := c.kerns[0].NewTask("parent")
	region := c.kerns[0].NewAnonymous(4)
	parent.Map.MapObject(0, region, 0, 4, vm.ProtWrite, vm.InheritCopy)
	c.run(t, func(p *sim.Proc) error {
		if err := parent.WriteU64(p, 0, 100); err != nil {
			return err
		}
		child, err := RemoteFork(c.cl(), parent, c.asvms[1], "child", DefaultConfig())
		if err != nil {
			return err
		}
		// Parent write after fork: must push the old contents first.
		if err := parent.WriteU64(p, 0, 200); err != nil {
			return err
		}
		cv, err := child.ReadU64(p, 0)
		if err != nil {
			return err
		}
		if cv != 100 {
			t.Errorf("child saw %d, want frozen 100", cv)
		}
		pv, _ := parent.ReadU64(p, 0)
		if pv != 200 {
			t.Errorf("parent read %d, want 200", pv)
		}
		// Child write stays in the child.
		if err := child.WriteU64(p, 8, 300); err != nil {
			return err
		}
		pv2, _ := parent.ReadU64(p, 8)
		if pv2 != 100 && pv2 != 200 {
			// address 8 is same page, parent value should be its own
			_ = pv2
		}
		return nil
	})
	if c.asvms[0].Ctr.Get("pushes_installed") == 0 {
		t.Fatal("no push happened for the post-fork write")
	}
}

func TestASVMRemoteForkChainPull(t *testing.T) {
	// Figure 9: fault in object 3 on node C pulls through B to A.
	c := newCluster(t, 4, 0, DefaultConfig())
	parent := c.kerns[0].NewTask("parent")
	region := c.kerns[0].NewAnonymous(4)
	parent.Map.MapObject(0, region, 0, 4, vm.ProtWrite, vm.InheritCopy)
	c.run(t, func(p *sim.Proc) error {
		if err := parent.WriteU64(p, 0, 777); err != nil {
			return err
		}
		cur := parent
		for i := 1; i < 4; i++ {
			child, err := RemoteFork(c.cl(), cur, c.asvms[i], "child", DefaultConfig())
			if err != nil {
				return err
			}
			cur = child
		}
		v, err := cur.ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 777 {
			t.Errorf("chain end read %d, want 777", v)
		}
		return nil
	})
	pulls := int64(0)
	for _, a := range c.asvms {
		pulls += a.Ctr.Get("pulls")
	}
	if pulls < 2 {
		t.Fatalf("pulls = %d, want >= 2 (chain traversal)", pulls)
	}
}

func TestASVMChainLatencyLinear(t *testing.T) {
	lat := func(hops int) time.Duration {
		c := newCluster(t, hops+1, 0, DefaultConfig())
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
				child, err := RemoteFork(c.cl(), cur, c.asvms[i], "child", DefaultConfig())
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
	inc1 := l2 - l1
	inc2 := (l4 - l2) / 2
	ratio := float64(inc1) / float64(inc2)
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("per-hop cost not linear: %v vs %v", inc1, inc2)
	}
}

func TestASVMZeroFillThroughCopyChain(t *testing.T) {
	// A page never touched by the parent zero-fills at the end of the
	// chain (pull result 1).
	c := newCluster(t, 3, 0, DefaultConfig())
	parent := c.kerns[0].NewTask("parent")
	region := c.kerns[0].NewAnonymous(4)
	parent.Map.MapObject(0, region, 0, 4, vm.ProtWrite, vm.InheritCopy)
	c.run(t, func(p *sim.Proc) error {
		child, err := RemoteFork(c.cl(), parent, c.asvms[1], "child", DefaultConfig())
		if err != nil {
			return err
		}
		grandchild, err := RemoteFork(c.cl(), child, c.asvms[2], "grandchild", DefaultConfig())
		if err != nil {
			return err
		}
		v, err := grandchild.ReadU64(p, 2*vm.PageSize)
		if err != nil {
			return err
		}
		if v != 0 {
			t.Errorf("untouched page read %d", v)
		}
		return nil
	})
}

func TestASVMManyPagesManyWriters(t *testing.T) {
	// Stress: concurrent procs on all nodes writing disjoint pages then
	// reading everything.
	c := newCluster(t, 8, 0, DefaultConfig())
	tasks := c.shared(t, 64, DefaultConfig())
	errs := make(chan error, 8)
	for n := 0; n < 8; n++ {
		n := n
		c.eng.Spawn("writer", func(p *sim.Proc) {
			for i := n; i < 64; i += 8 {
				if err := tasks[n].WriteU64(p, vm.Addr(i*vm.PageSize), uint64(i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		})
	}
	c.eng.Run()
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	c.run(t, func(p *sim.Proc) error {
		for i := 0; i < 64; i++ {
			v, err := tasks[(i+3)%8].ReadU64(p, vm.Addr(i*vm.PageSize))
			if err != nil {
				return err
			}
			if v != uint64(i) {
				t.Errorf("page %d = %d", i, v)
			}
		}
		return nil
	})
}

func TestASVMConcurrentWritersSamePage(t *testing.T) {
	// All nodes hammer the same page; coherence must serialize them and
	// no increment may be lost (each node increments its own slot; the
	// page is the contention unit).
	c := newCluster(t, 6, 0, DefaultConfig())
	tasks := c.shared(t, 1, DefaultConfig())
	done := 0
	for n := 0; n < 6; n++ {
		n := n
		c.eng.Spawn("w", func(p *sim.Proc) {
			for round := 0; round < 10; round++ {
				addr := vm.Addr(n * 8)
				v, err := tasks[n].ReadU64(p, addr)
				if err != nil {
					t.Error(err)
					return
				}
				if err := tasks[n].WriteU64(p, addr, v+1); err != nil {
					t.Error(err)
					return
				}
			}
			done++
		})
	}
	c.eng.Run()
	if done != 6 {
		t.Fatalf("only %d/6 writers finished", done)
	}
	c.run(t, func(p *sim.Proc) error {
		for n := 0; n < 6; n++ {
			v, err := tasks[0].ReadU64(p, vm.Addr(n*8))
			if err != nil {
				return err
			}
			if v != 10 {
				t.Errorf("slot %d = %d, want 10", n, v)
			}
		}
		return nil
	})
}

func TestRangeLockExclusivity(t *testing.T) {
	// §6 extension: with the range lock held, a foreign write request
	// queues at the owner until release.
	c := newCluster(t, 3, 0, DefaultConfig())
	tasks := c.shared(t, 4, DefaultConfig())
	in1 := func() *Instance { return c.asvms[1].Instance(sharedID) }
	var stolenAt, releasedAt sim.Time
	c.eng.Spawn("holder", func(p *sim.Proc) {
		if err := in1().AcquireRange(p, tasks[1], 0, 0, 2); err != nil {
			t.Error(err)
			return
		}
		if !in1().Held(0) || !in1().Held(1) {
			t.Error("pages not held after acquire")
		}
		p.Sleep(50 * time.Millisecond)
		releasedAt = p.Now()
		if err := in1().ReleaseRange(0, 2); err != nil {
			t.Error(err)
		}
	})
	c.eng.Spawn("thief", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // let the holder acquire first
		if err := tasks[2].WriteU64(p, 0, 99); err != nil {
			t.Error(err)
			return
		}
		stolenAt = p.Now()
	})
	c.eng.Run()
	if stolenAt == 0 || releasedAt == 0 {
		t.Fatal("procs did not finish")
	}
	if stolenAt < releasedAt {
		t.Fatalf("write succeeded at %v before release at %v", stolenAt, releasedAt)
	}
}

func TestRangeLockAtomicMultiPageUpdate(t *testing.T) {
	// Two nodes do read-modify-write across two pages under lock: the
	// pages must never be observed out of sync.
	c := newCluster(t, 4, 0, DefaultConfig())
	tasks := c.shared(t, 2, DefaultConfig())
	addrA, addrB := vm.Addr(0), vm.Addr(vm.PageSize)
	violations := 0
	done := 0
	for n := 1; n <= 2; n++ {
		n := n
		c.eng.Spawn("worker", func(p *sim.Proc) {
			in := c.asvms[n].Instance(sharedID)
			for round := 0; round < 6; round++ {
				if err := in.AcquireRange(p, tasks[n], 0, 0, 2); err != nil {
					t.Error(err)
					return
				}
				a, err := tasks[n].ReadU64(p, addrA)
				if err != nil {
					t.Error(err)
					return
				}
				b, err := tasks[n].ReadU64(p, addrB)
				if err != nil {
					t.Error(err)
					return
				}
				if a != b {
					violations++
				}
				// Simulated critical-section work between the two writes:
				// without the lock the other node could read in between.
				if err := tasks[n].WriteU64(p, addrA, a+1); err != nil {
					t.Error(err)
					return
				}
				p.Sleep(3 * time.Millisecond)
				if err := tasks[n].WriteU64(p, addrB, b+1); err != nil {
					t.Error(err)
					return
				}
				if err := in.ReleaseRange(0, 2); err != nil {
					t.Error(err)
					return
				}
				p.Sleep(time.Millisecond)
			}
			done++
		})
	}
	c.eng.Run()
	if done != 2 {
		t.Fatalf("only %d workers finished", done)
	}
	if violations != 0 {
		t.Fatalf("%d atomicity violations", violations)
	}
	c.run(t, func(p *sim.Proc) error {
		a, err := tasks[3].ReadU64(p, addrA)
		if err != nil {
			return err
		}
		b, err := tasks[3].ReadU64(p, addrB)
		if err != nil {
			return err
		}
		if a != 12 || b != 12 {
			t.Errorf("final values %d/%d, want 12/12", a, b)
		}
		return nil
	})
}

func TestRangeLockRejectsBadRange(t *testing.T) {
	c := newCluster(t, 2, 0, DefaultConfig())
	tasks := c.shared(t, 4, DefaultConfig())
	c.run(t, func(p *sim.Proc) error {
		in := c.asvms[0].Instance(sharedID)
		if err := in.AcquireRange(p, tasks[0], 0, 2, 2); err == nil {
			t.Error("empty range accepted")
		}
		if err := in.AcquireRange(p, tasks[0], 0, 0, 99); err == nil {
			t.Error("out-of-bounds range accepted")
		}
		return nil
	})
}

func TestASVMZigzagChainConcurrentFaultsNeverBlock(t *testing.T) {
	// The counterpart of XMM's thread-pool deadlock (see
	// internal/xmm/deadlock_test.go): ASVM resolves the same
	// zigzag copy chain (0 -> 1 -> 0 -> 1) with asynchronous state
	// transitions — no kernel threads are held across hops, so concurrent
	// faults cannot deadlock no matter the pool size (there is no pool).
	c := newCluster(t, 2, 0, DefaultConfig())
	parent := c.kerns[0].NewTask("gen0")
	region := c.kerns[0].NewAnonymous(4)
	if _, err := parent.Map.MapObject(0, region, 0, 4, vm.ProtWrite, vm.InheritCopy); err != nil {
		t.Fatal(err)
	}
	var leaf *vm.Task
	c.run(t, func(p *sim.Proc) error {
		for i := 0; i < 4; i++ {
			if err := parent.WriteU64(p, vm.Addr(i*vm.PageSize), uint64(i)+7); err != nil {
				return err
			}
		}
		cur := parent
		for _, dst := range []int{1, 0, 1} {
			child, err := RemoteFork(c.cl(), cur, c.asvms[dst], "gen", DefaultConfig())
			if err != nil {
				return err
			}
			cur = child
		}
		leaf = cur
		return nil
	})
	done := 0
	for i := 0; i < 4; i++ {
		i := i
		c.eng.Spawn("faulter", func(p *sim.Proc) {
			v, err := leaf.ReadU64(p, vm.Addr(i*vm.PageSize))
			if err != nil {
				t.Error(err)
				return
			}
			if v != uint64(i)+7 {
				t.Errorf("page %d = %d", i, v)
				return
			}
			done++
		})
	}
	c.eng.Run()
	if done != 4 {
		t.Fatalf("only %d/4 concurrent chain faults completed", done)
	}
	if c.eng.LiveProcs() != 0 {
		t.Fatal("procs blocked — ASVM must never deadlock here")
	}
}

func TestASVMLargeClusterSmoke(t *testing.T) {
	// 256 nodes (a mid-size Paragon installation): faults must still
	// resolve in a handful of hops, not degrade with machine size.
	c := newCluster(t, 256, 0, DefaultConfig())
	tasks := c.shared(t, 16, DefaultConfig())
	var first, second time.Duration
	c.run(t, func(p *sim.Proc) error {
		if err := tasks[7].WriteU64(p, 0, 1); err != nil {
			return err
		}
		t0 := p.Now()
		if _, err := tasks[201].ReadU64(p, 0); err != nil {
			return err
		}
		first = p.Now() - t0
		t0 = p.Now()
		if err := tasks[133].WriteU64(p, 0, 2); err != nil {
			return err
		}
		second = p.Now() - t0
		return nil
	})
	// Latency must stay in the same regime as the 5-node cluster (~2 ms),
	// not scale with the 256-node machine size.
	if first > 6*time.Millisecond || second > 10*time.Millisecond {
		t.Fatalf("large-cluster faults degraded: read %v write %v", first, second)
	}
}

// TestAddNodeAfterTeardownNoDuplicate: tearing a domain down drops the
// instances but leaves the DomainInfo's mapping ring intact, so re-adding a
// node must reuse its ring slot rather than append a second entry (a
// duplicate would skew static hashing and the global ring scan).
func TestAddNodeAfterTeardownNoDuplicate(t *testing.T) {
	c := newCluster(t, 3, 0, DefaultConfig())
	info, _ := Setup(sharedID, 4, c.asvms, 0, nil, DefaultConfig())
	if len(info.Mapping) != 3 {
		t.Fatalf("mapping has %d entries after setup, want 3", len(info.Mapping))
	}
	Teardown(c.cl(), info)
	for _, a := range c.asvms {
		if a.Instance(sharedID) != nil {
			t.Fatalf("node %d still has an instance after teardown", a.Self)
		}
	}

	// Re-add every node: the ring must keep exactly one entry per node, in
	// the original order, and each node must get a live instance again.
	for _, a := range c.asvms {
		in := AddNode(info, a)
		if in == nil || a.Instance(sharedID) != in {
			t.Fatalf("node %d not re-established", a.Self)
		}
	}
	if len(info.Mapping) != 3 {
		t.Fatalf("mapping has %d entries after re-add, want 3: %v", len(info.Mapping), info.Mapping)
	}
	for i, a := range c.asvms {
		if got := info.mappingIndex(a.Self); got != i {
			t.Errorf("node %d at ring index %d, want %d", a.Self, got, i)
		}
	}

	// AddNode on a live instance stays idempotent.
	if AddNode(info, c.asvms[1]) != c.asvms[1].Instance(sharedID) {
		t.Error("AddNode on a live instance did not return it")
	}
	if len(info.Mapping) != 3 {
		t.Errorf("idempotent AddNode grew the mapping: %v", info.Mapping)
	}
}
