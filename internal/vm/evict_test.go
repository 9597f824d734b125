package vm

import (
	"testing"

	"asvm/internal/sim"
)

// memKernel builds a kernel with a small physical memory.
func memKernel(e *sim.Engine, pages int) *Kernel {
	return NewKernel(e, 0, DefaultCosts(), NewPhysMem(pages), true)
}

// pagerStub implements MemoryManager as an in-memory paging space.
type pagerStub struct {
	k     *Kernel
	store map[pageKey][]byte
}

// newPagedObject makes an object of the given size backed by a pagerStub.
func newPagedObject(k *Kernel, sizePages PageIdx) *Object {
	o := k.NewAnonymous(sizePages)
	o.Mgr = &pagerStub{k: k, store: make(map[pageKey][]byte)}
	return o
}

func (d *pagerStub) DataRequest(o *Object, idx PageIdx, desired Prot) {
	data := d.store[pageKey{o.ID, idx}]
	d.k.Eng.Schedule(0, func() { d.k.DataSupply(o, idx, data, ProtWrite, false) })
}

func (d *pagerStub) DataUnlock(o *Object, idx PageIdx, desired Prot) {
	d.k.LockGrant(o, idx, desired)
}

func (d *pagerStub) DataReturn(o *Object, idx PageIdx, data []byte, dirty, kept bool) {
	buf := make([]byte, len(data))
	copy(buf, data)
	d.store[pageKey{o.ID, idx}] = buf
	if !kept {
		d.k.Eng.Schedule(0, func() { d.k.RemovePage(o, idx) })
	}
}

func TestEvictionKeepsOccupancyBounded(t *testing.T) {
	e := sim.NewEngine()
	k := memKernel(e, 16)
	task := k.NewTask("t")
	obj := newPagedObject(k, 64)
	task.Map.MapObject(0, obj, 0, 64, ProtWrite, InheritCopy)
	runTask(t, e, func(p *sim.Proc) error {
		for i := 0; i < 64; i++ {
			if err := task.WriteU64(p, Addr(i*PageSize), uint64(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if k.Mem.ResidentPages > 16 {
		t.Fatalf("resident = %d > capacity 16", k.Mem.ResidentPages)
	}
	if k.Mem.Evictions == 0 {
		t.Fatal("no evictions happened")
	}
}

func TestCleanPagesDroppedWithoutPager(t *testing.T) {
	e := sim.NewEngine()
	k := memKernel(e, 8)
	// Anonymous memory: only clean pages can be evicted.
	task := k.NewTask("t")
	obj := k.NewAnonymous(32)
	task.Map.MapObject(0, obj, 0, 32, ProtWrite, InheritCopy)
	runTask(t, e, func(p *sim.Proc) error {
		for i := 0; i < 32; i++ {
			if _, err := task.Touch(p, Addr(i*PageSize), ProtRead); err != nil {
				return err
			}
		}
		return nil
	})
	if k.Mem.ResidentPages > 8 {
		t.Fatalf("resident = %d", k.Mem.ResidentPages)
	}
	if k.Ctr.Get("evict_drop") == 0 {
		t.Fatal("no clean drops")
	}
	// Re-reading a dropped page re-zero-fills.
	runTask(t, e, func(p *sim.Proc) error {
		v, err := task.ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 0 {
			t.Errorf("dropped zero page read %d", v)
		}
		return nil
	})
}

func TestDirtyPagesStickWithoutPager(t *testing.T) {
	e := sim.NewEngine()
	k := memKernel(e, 4)
	task := k.NewTask("t")
	obj := k.NewAnonymous(8)
	task.Map.MapObject(0, obj, 0, 8, ProtWrite, InheritCopy)
	runTask(t, e, func(p *sim.Proc) error {
		for i := 0; i < 8; i++ {
			if err := task.WriteU64(p, Addr(i*PageSize), uint64(i)); err != nil {
				return err
			}
		}
		// All dirty, no pager: everything must still be readable.
		for i := 0; i < 8; i++ {
			v, err := task.ReadU64(p, Addr(i*PageSize))
			if err != nil {
				return err
			}
			if v != uint64(i) {
				t.Errorf("page %d = %d", i, v)
			}
		}
		return nil
	})
	if k.Ctr.Get("evict_stuck") == 0 {
		t.Fatal("expected stuck evictions without a pager")
	}
}

// TestPushedCopyPageSurvivesPressure: the page an asymmetric copy receives
// when its source is written holds the only copy of the old contents, so
// memory pressure must not drop it as a clean page.
func TestPushedCopyPageSurvivesPressure(t *testing.T) {
	e := sim.NewEngine()
	k := memKernel(e, 4)
	src := k.NewAnonymous(8)
	src.Strategy = CopyAsymmetric
	task := k.NewTask("t")
	task.Map.MapObject(0, src, 0, 8, ProtWrite, InheritCopy)
	runTask(t, e, func(p *sim.Proc) error {
		if err := task.WriteU64(p, 0, 1); err != nil {
			return err
		}
		cp := k.CopyAsymmetric(src)
		ct := k.NewTask("ct")
		ct.Map.MapObject(0, cp, 0, 8, ProtRead, InheritShare)
		if err := task.WriteU64(p, 0, 2); err != nil {
			return err
		}
		for i := 1; i < 8; i++ {
			if _, err := task.ReadU64(p, Addr(i*PageSize)); err != nil {
				return err
			}
		}
		v, err := ct.ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 1 {
			t.Errorf("copy read %d, want 1 (local_pushes=%d, evict_drop=%d)",
				v, k.Ctr.Get("local_pushes"), k.Ctr.Get("evict_drop"))
		}
		return nil
	})
	if k.Ctr.Get("local_pushes") != 1 || k.Ctr.Get("evict_drop") == 0 {
		t.Fatalf("local_pushes=%d evict_drop=%d: the test needs one push under pressure",
			k.Ctr.Get("local_pushes"), k.Ctr.Get("evict_drop"))
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	e := sim.NewEngine()
	k := memKernel(e, 4)
	task := k.NewTask("t")
	obj := newPagedObject(k, 16)
	task.Map.MapObject(0, obj, 0, 16, ProtWrite, InheritCopy)
	runTask(t, e, func(p *sim.Proc) error {
		if err := task.WriteU64(p, 0, 42); err != nil {
			return err
		}
		k.Pin(obj, 0)
		for i := 1; i < 16; i++ {
			if err := task.WriteU64(p, Addr(i*PageSize), uint64(i)); err != nil {
				return err
			}
		}
		if !obj.Resident(0) {
			t.Error("pinned page was evicted")
		}
		k.Unpin(obj, 0)
		return nil
	})
}

func TestLRUOrdering(t *testing.T) {
	e := sim.NewEngine()
	k := memKernel(e, 0) // unlimited; probe lruVictim directly
	obj := k.NewAnonymous(8)
	k.InstallPage(obj, 0, nil, ProtWrite)
	k.InstallPage(obj, 1, nil, ProtWrite)
	k.InstallPage(obj, 2, nil, ProtWrite)
	// Touch page 0 so page 1 becomes LRU.
	k.touch(obj.Lookup(0))
	_, victim := k.lruVictim(nil)
	if victim == nil || victim.Idx != 1 {
		t.Fatalf("victim = %v, want page 1", victim)
	}
}

func TestFaultWaitsForEviction(t *testing.T) {
	e := sim.NewEngine()
	k := memKernel(e, 0)
	task := k.NewTask("t")
	obj := newPagedObject(k, 8)
	task.Map.MapObject(0, obj, 0, 8, ProtWrite, InheritCopy)
	runTask(t, e, func(p *sim.Proc) error {
		if err := task.WriteU64(p, 0, 5); err != nil {
			return err
		}
		// Manually start an eviction, then fault on the page: the fault
		// must wait for the eviction to finish and then page back in.
		pg := obj.Lookup(0)
		k.startEviction(obj, pg)
		v, err := task.ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 5 {
			t.Errorf("read %d after eviction race, want 5", v)
		}
		return nil
	})
}
