package vm

// Tests for the paper's EMMI extensions (§3.7.1): the lock_request and
// data_supply "mode" arguments, the lock_completed "result", and
// pull_request/pull_completed — exercised directly against the kernel.

import (
	"testing"

	"asvm/internal/sim"
)

// copyPair builds src -> copy asymmetric objects with one resident source
// page containing marker.
func copyPair(t *testing.T, k *Kernel, marker byte) (src, cp *Object) {
	t.Helper()
	src = k.NewAnonymous(8)
	src.Strategy = CopyAsymmetric
	data := make([]byte, PageSize)
	data[0] = marker
	pg := k.InstallPage(src, 0, data, ProtWrite)
	pg.Dirty = true
	cp = k.CopyAsymmetric(src)
	return src, cp
}

func TestLockRequestPushMode(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	src, cp := copyPair(t, k, 0x3C)
	if !src.NeedsPush(0) {
		t.Fatal("page should need a push after the copy")
	}
	pushed := false
	k.LockRequest(src, 0, ProtRead, true, func(present bool) {
		pushed = present
	})
	if !pushed {
		t.Fatal("lock_completed reported absent for a resident page")
	}
	if !cp.Resident(0) {
		t.Fatal("push mode did not insert the page into the copy")
	}
	if cp.Lookup(0).Data[0] != 0x3C {
		t.Fatal("pushed contents wrong")
	}
	if src.NeedsPush(0) {
		t.Fatal("page version not stamped after push")
	}
	if src.Lookup(0).Lock != ProtRead {
		t.Fatal("lock not applied after push")
	}
}

func TestLockRequestPushModeAbsentPage(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	src, cp := copyPair(t, k, 0)
	// Page 3 is not resident: the reply must say so (the paper's extended
	// lock_completed result), and nothing lands in the copy.
	var present bool
	k.LockRequest(src, 3, ProtRead, true, func(ok bool) { present = ok })
	if present {
		t.Fatal("absent page reported present")
	}
	if cp.Resident(3) {
		t.Fatal("push happened for an absent page")
	}
}

func TestDataSupplyPushMode(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	src, cp := copyPair(t, k, 0)
	// The page owner sent us contents to push down the copy chain
	// (data_supply mode argument).
	data := make([]byte, PageSize)
	data[0] = 0x77
	k.DataSupply(src, 5, data, ProtRead, true)
	if !cp.Resident(5) {
		t.Fatal("push-mode supply did not reach the copy")
	}
	if cp.Lookup(5).Data[0] != 0x77 {
		t.Fatal("pushed supply contents wrong")
	}
	if src.Resident(5) {
		t.Fatal("push-mode supply leaked into the source object")
	}
	if src.NeedsPush(5) {
		t.Fatal("push-mode supply did not stamp the version")
	}
}

func TestDataSupplyPushModeAlreadyPresent(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	src, cp := copyPair(t, k, 0)
	old := make([]byte, PageSize)
	old[0] = 1
	k.InstallPage(cp, 0, old, ProtWrite)
	newer := make([]byte, PageSize)
	newer[0] = 2
	k.DataSupply(src, 0, newer, ProtRead, true)
	if cp.Lookup(0).Data[0] != 1 {
		t.Fatal("push overwrote an existing copy page")
	}
}

func TestLockGrantOnAbsentPage(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	o := k.NewAnonymous(4)
	// Must not crash, and must complete any pending wait.
	k.LockGrant(o, 2, ProtWrite)
}

func TestDataUnavailableOnResidentPage(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	o := k.NewAnonymous(4)
	k.InstallPage(o, 0, nil, ProtRead)
	k.DataUnavailable(o, 0, ProtWrite)
	if k.Mem.ResidentPages != 1 {
		t.Fatalf("resident = %d after redundant unavailable", k.Mem.ResidentPages)
	}
}

func TestCancelEviction(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	o := k.NewAnonymous(4)
	pg := k.InstallPage(o, 0, nil, ProtWrite)
	pg.Dirty = true
	pg.Evicting = true
	k.Mem.EvictingPages++
	k.CancelEviction(o, 0)
	if pg.Evicting {
		t.Fatal("eviction not cancelled")
	}
	if k.Mem.EvictingPages != 0 {
		t.Fatalf("EvictingPages = %d", k.Mem.EvictingPages)
	}
	// Cancelling a non-evicting page is a no-op.
	k.CancelEviction(o, 0)
	k.CancelEviction(o, 3)
}

func TestCancelEvictionWakesWaiters(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	task := k.NewTask("t")
	o := k.NewAnonymous(4)
	task.Map.MapObject(0, o, 0, 4, ProtWrite, InheritCopy)
	woke := false
	runTask(t, e, func(p *sim.Proc) error {
		if err := task.WriteU64(p, 0, 9); err != nil {
			return err
		}
		pg := o.Lookup(0)
		pg.Evicting = true
		k.Mem.EvictingPages++
		e.Schedule(5e6, func() { k.CancelEviction(o, 0) })
		v, err := task.ReadU64(p, 0) // must wait, then see the page again
		if err != nil {
			return err
		}
		if v != 9 {
			t.Errorf("read %d", v)
		}
		woke = true
		return nil
	})
	if !woke {
		t.Fatal("reader never woke after cancelled eviction")
	}
}

func TestHasPending(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	mgr := &fakeMgr{k: k} // manual supply
	o := k.NewObject(ObjID{0, 300}, 4, mgr, CopyNone)
	task := k.NewTask("t")
	task.Map.MapObject(0, o, 0, 4, ProtRead, InheritShare)
	e.Spawn("t", func(p *sim.Proc) {
		task.Touch(p, 0, ProtRead)
	})
	e.Run()
	if !k.HasPending(o, 0) {
		t.Fatal("no pending request recorded")
	}
	k.DataSupply(o, 0, nil, ProtRead, false)
	e.Run()
	if k.HasPending(o, 0) {
		t.Fatal("pending not cleared by supply")
	}
}
