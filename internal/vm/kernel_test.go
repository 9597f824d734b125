package vm

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"asvm/internal/sim"
)

// testKernel builds a kernel with unlimited memory and data tracking.
func testKernel(e *sim.Engine) *Kernel {
	return NewKernel(e, 0, DefaultCosts(), NewPhysMem(0), true)
}

// runTask spawns a proc, runs fn inside it, and drives the engine to
// completion, failing the test on error.
func runTask(t *testing.T, e *sim.Engine, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	e.Spawn("test", func(p *sim.Proc) { err = fn(p) })
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroFillFault(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	task := k.NewTask("t")
	obj := k.NewAnonymous(16)
	if _, err := task.Map.MapObject(0x10000, obj, 0, 16, ProtWrite, InheritCopy); err != nil {
		t.Fatal(err)
	}
	runTask(t, e, func(p *sim.Proc) error {
		pg, err := task.Touch(p, 0x10000, ProtRead)
		if err != nil {
			return err
		}
		if pg.Dirty {
			t.Error("read fault produced dirty page")
		}
		for _, b := range pg.Data {
			if b != 0 {
				t.Error("zero-filled page not zero")
				break
			}
		}
		return nil
	})
	if k.Ctr.Get("zero_fills") != 1 {
		t.Fatalf("zero_fills = %d", k.Ctr.Get("zero_fills"))
	}
	if k.Mem.ResidentPages != 1 {
		t.Fatalf("resident = %d", k.Mem.ResidentPages)
	}
}

func TestWriteFaultSetsDirty(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	task := k.NewTask("t")
	obj := k.NewAnonymous(4)
	task.Map.MapObject(0, obj, 0, 4, ProtWrite, InheritCopy)
	runTask(t, e, func(p *sim.Proc) error {
		pg, err := task.Touch(p, PageSize, ProtWrite)
		if err != nil {
			return err
		}
		if !pg.Dirty {
			t.Error("write fault left page clean")
		}
		return nil
	})
}

func TestFastPathAfterFault(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	task := k.NewTask("t")
	obj := k.NewAnonymous(4)
	task.Map.MapObject(0, obj, 0, 4, ProtWrite, InheritCopy)
	runTask(t, e, func(p *sim.Proc) error {
		if _, err := task.Touch(p, 0, ProtWrite); err != nil {
			return err
		}
		before := p.Now()
		faults := k.Ctr.Get("faults")
		if _, err := task.Touch(p, 0, ProtRead); err != nil {
			return err
		}
		if _, err := task.Touch(p, 0, ProtWrite); err != nil {
			return err
		}
		if p.Now() != before {
			t.Error("fast path consumed simulated time")
		}
		if k.Ctr.Get("faults") != faults {
			t.Error("fast path took a fault")
		}
		return nil
	})
}

func TestReadWriteU64Roundtrip(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	task := k.NewTask("t")
	obj := k.NewAnonymous(4)
	task.Map.MapObject(0, obj, 0, 4, ProtWrite, InheritCopy)
	runTask(t, e, func(p *sim.Proc) error {
		if err := task.WriteU64(p, 0x100, 0xDEADBEEFCAFE); err != nil {
			return err
		}
		v, err := task.ReadU64(p, 0x100)
		if err != nil {
			return err
		}
		if v != 0xDEADBEEFCAFE {
			t.Errorf("read %#x", v)
		}
		return nil
	})
}

func TestFaultUnmappedAddress(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	task := k.NewTask("t")
	var ferr error
	e.Spawn("t", func(p *sim.Proc) {
		_, ferr = task.Touch(p, 0x999000, ProtRead)
	})
	e.Run()
	if ferr == nil {
		t.Fatal("fault on unmapped address succeeded")
	}
}

func TestFaultProtectionViolation(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	task := k.NewTask("t")
	obj := k.NewAnonymous(4)
	task.Map.MapObject(0, obj, 0, 4, ProtRead, InheritCopy)
	var ferr error
	e.Spawn("t", func(p *sim.Proc) {
		_, ferr = task.Touch(p, 0, ProtWrite)
	})
	e.Run()
	if ferr == nil {
		t.Fatal("write through read-only mapping succeeded")
	}
}

// fakeMgr is a scriptable MemoryManager for kernel tests.
type fakeMgr struct {
	k        *Kernel
	delay    time.Duration
	lock     Prot
	requests []PageIdx
	unlocks  []PageIdx
	returns  []PageIdx
	dirties  []bool
	// supply controls DataRequest auto-response: "data", "unavailable",
	// "none" (manual).
	supply string
	fill   byte
}

func (f *fakeMgr) DataRequest(o *Object, idx PageIdx, desired Prot) {
	f.requests = append(f.requests, idx)
	switch f.supply {
	case "data":
		data := make([]byte, PageSize)
		for i := range data {
			data[i] = f.fill
		}
		lock := f.lock
		if lock == ProtNone {
			lock = desired
		}
		f.k.Eng.Schedule(f.delay, func() { f.k.DataSupply(o, idx, data, lock, false) })
	case "unavailable":
		f.k.Eng.Schedule(f.delay, func() { f.k.DataUnavailable(o, idx, ProtWrite) })
	}
}

func (f *fakeMgr) DataUnlock(o *Object, idx PageIdx, desired Prot) {
	f.unlocks = append(f.unlocks, idx)
	f.k.Eng.Schedule(f.delay, func() { f.k.LockGrant(o, idx, desired) })
}

func (f *fakeMgr) DataReturn(o *Object, idx PageIdx, data []byte, dirty, kept bool) {
	f.returns = append(f.returns, idx)
	f.dirties = append(f.dirties, dirty)
	if !kept {
		f.k.RemovePage(o, idx)
	}
}

func TestManagedFaultDataSupply(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	mgr := &fakeMgr{k: k, delay: time.Millisecond, supply: "data", fill: 0xAB}
	obj := k.NewObject(ObjID{0, 100}, 8, mgr, CopyNone)
	task := k.NewTask("t")
	task.Map.MapObject(0, obj, 0, 8, ProtWrite, InheritShare)
	runTask(t, e, func(p *sim.Proc) error {
		pg, err := task.Touch(p, 0, ProtRead)
		if err != nil {
			return err
		}
		if pg.Data[0] != 0xAB {
			t.Errorf("supplied data lost: %#x", pg.Data[0])
		}
		return nil
	})
	if len(mgr.requests) != 1 {
		t.Fatalf("requests = %v", mgr.requests)
	}
}

func TestManagedFaultUnavailableZeroFills(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	mgr := &fakeMgr{k: k, supply: "unavailable"}
	obj := k.NewObject(ObjID{0, 101}, 8, mgr, CopyNone)
	task := k.NewTask("t")
	task.Map.MapObject(0, obj, 0, 8, ProtWrite, InheritShare)
	runTask(t, e, func(p *sim.Proc) error {
		pg, err := task.Touch(p, 0, ProtWrite)
		if err != nil {
			return err
		}
		if pg.Data[0] != 0 {
			t.Error("unavailable page not zero-filled")
		}
		return nil
	})
	if k.Ctr.Get("zero_fills") != 1 {
		t.Fatalf("zero_fills = %d", k.Ctr.Get("zero_fills"))
	}
}

func TestConcurrentFaultsCoalesce(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	mgr := &fakeMgr{k: k, delay: 10 * time.Millisecond, supply: "data"}
	obj := k.NewObject(ObjID{0, 102}, 8, mgr, CopyNone)
	done := 0
	for i := 0; i < 5; i++ {
		task := k.NewTask("t")
		task.Map.MapObject(0, obj, 0, 8, ProtRead, InheritShare)
		e.Spawn("t", func(p *sim.Proc) {
			if _, err := task.Touch(p, 0, ProtRead); err == nil {
				done++
			}
		})
	}
	e.Run()
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	if len(mgr.requests) != 1 {
		t.Fatalf("coalescing failed: %d data requests", len(mgr.requests))
	}
}

func TestLockUpgradeViaDataUnlock(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	mgr := &fakeMgr{k: k, delay: time.Millisecond, supply: "data", lock: ProtRead}
	obj := k.NewObject(ObjID{0, 103}, 8, mgr, CopyNone)
	task := k.NewTask("t")
	task.Map.MapObject(0, obj, 0, 8, ProtWrite, InheritShare)
	runTask(t, e, func(p *sim.Proc) error {
		// First fault gets the page read-locked.
		if _, err := task.Touch(p, 0, ProtRead); err != nil {
			return err
		}
		// Write must go through DataUnlock.
		pg, err := task.Touch(p, 0, ProtWrite)
		if err != nil {
			return err
		}
		if pg.Lock != ProtWrite {
			t.Errorf("lock = %v after unlock", pg.Lock)
		}
		return nil
	})
	if len(mgr.unlocks) != 1 {
		t.Fatalf("unlocks = %v", mgr.unlocks)
	}
}

func TestLockRequestFlushReturnsDirtyData(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	mgr := &fakeMgr{k: k, supply: "data", lock: ProtWrite, fill: 1}
	obj := k.NewObject(ObjID{0, 104}, 8, mgr, CopyNone)
	task := k.NewTask("t")
	task.Map.MapObject(0, obj, 0, 8, ProtWrite, InheritShare)
	runTask(t, e, func(p *sim.Proc) error {
		if err := task.WriteU64(p, 0, 42); err != nil {
			return err
		}
		present := false
		k.LockRequest(obj, 0, ProtNone, false, func(ok bool) { present = ok })
		if !present {
			t.Error("flush reported page absent")
		}
		if obj.Resident(0) {
			t.Error("page still resident after flush")
		}
		return nil
	})
	if len(mgr.returns) != 1 || !mgr.dirties[0] {
		t.Fatalf("dirty flush did not DataReturn: %v %v", mgr.returns, mgr.dirties)
	}
}

func TestLockRequestDowngradeCleansDirty(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	mgr := &fakeMgr{k: k, supply: "data", lock: ProtWrite}
	obj := k.NewObject(ObjID{0, 105}, 8, mgr, CopyNone)
	task := k.NewTask("t")
	task.Map.MapObject(0, obj, 0, 8, ProtWrite, InheritShare)
	runTask(t, e, func(p *sim.Proc) error {
		if err := task.WriteU64(p, 0, 42); err != nil {
			return err
		}
		k.LockRequest(obj, 0, ProtRead, false, nil)
		pg := obj.Lookup(0)
		if pg == nil || pg.Lock != ProtRead {
			t.Error("downgrade failed")
		}
		if pg.Dirty {
			t.Error("downgrade left page dirty")
		}
		return nil
	})
	if len(mgr.returns) != 1 {
		t.Fatalf("downgrade did not clean through DataReturn")
	}
}

func TestLockRequestAbsentPage(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	obj := k.NewAnonymous(8)
	called := false
	k.LockRequest(obj, 3, ProtNone, true, func(present bool) {
		called = true
		if present {
			t.Error("absent page reported present")
		}
	})
	if !called {
		t.Fatal("done callback not invoked")
	}
}

func TestPullRequestOutcomes(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	mgr := &fakeMgr{k: k}
	bottom := k.NewObject(ObjID{0, 110}, 8, mgr, CopyNone)
	mid := k.NewAnonymous(8)
	mid.Shadow = bottom
	top := k.NewAnonymous(8)
	top.Shadow = mid

	// Case: data found in an intermediate anonymous object.
	data := make([]byte, PageSize)
	data[0] = 7
	k.InstallPage(mid, 2, data, ProtWrite)
	k.PullRequest(top, 2, func(res PullResult, d []byte, sh *Object) {
		if res != PullData || d[0] != 7 {
			t.Errorf("pull = %v", res)
		}
	})

	// Case: managed shadow reached.
	k.PullRequest(top, 3, func(res PullResult, d []byte, sh *Object) {
		if res != PullAskManager || sh != bottom {
			t.Errorf("pull = %v sh=%v", res, sh)
		}
	})

	// Case: zero fill (chain with no manager at bottom).
	lone := k.NewAnonymous(8)
	top2 := k.NewAnonymous(8)
	top2.Shadow = lone
	k.PullRequest(top2, 0, func(res PullResult, d []byte, sh *Object) {
		if res != PullZeroFill {
			t.Errorf("pull = %v", res)
		}
	})
}

func TestDataSupplyOnResidentPageUpgradesLock(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	mgr := &fakeMgr{k: k}
	obj := k.NewObject(ObjID{0, 111}, 8, mgr, CopyNone)
	k.InstallPage(obj, 0, nil, ProtRead)
	k.DataSupply(obj, 0, nil, ProtWrite, false)
	if pg := obj.Lookup(0); pg.Lock != ProtWrite {
		t.Fatalf("lock = %v", pg.Lock)
	}
	if k.Mem.ResidentPages != 1 {
		t.Fatalf("double-counted frame: %d", k.Mem.ResidentPages)
	}
}

func TestDoubleInstallPanics(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	obj := k.NewAnonymous(8)
	k.InstallPage(obj, 0, nil, ProtRead)
	defer func() {
		if recover() == nil {
			t.Fatal("double install did not panic")
		}
	}()
	k.InstallPage(obj, 0, nil, ProtRead)
}

func TestDuplicateObjectIDPanics(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	k.NewObject(ObjID{0, 5}, 8, nil, CopyNone)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate object ID did not panic")
		}
	}()
	k.NewObject(ObjID{0, 5}, 8, nil, CopyNone)
}

// livelockMgr completes every data request without ever installing a page:
// the fault retry loop can never converge.
type livelockMgr struct{ k *Kernel }

func (f *livelockMgr) DataRequest(o *Object, idx PageIdx, desired Prot) {
	f.k.Eng.Schedule(0, func() { f.k.LockGrant(o, idx, desired) })
}
func (f *livelockMgr) DataUnlock(o *Object, idx PageIdx, desired Prot)            {}
func (f *livelockMgr) DataReturn(o *Object, idx PageIdx, d []byte, dr, kept bool) {}

func TestFaultRetryExhaustedError(t *testing.T) {
	// A manager that acknowledges requests but never supplies the page must
	// surface the typed livelock error with the spinning access identified,
	// for a read and for a write fault.
	e := sim.NewEngine()
	k := testKernel(e)
	mgr := &livelockMgr{k: k}
	obj := k.NewObject(ObjID{Node: 0, Seq: 321}, 8, mgr, CopyNone)
	task := k.NewTask("t")
	if _, err := task.Map.MapObject(0, obj, 0, 8, ProtWrite, InheritShare); err != nil {
		t.Fatal(err)
	}
	var readErr, writeErr error
	e.Spawn("t", func(p *sim.Proc) {
		_, readErr = task.Touch(p, 3*PageSize, ProtRead)
		_, writeErr = task.Touch(p, 5*PageSize, ProtWrite)
	})
	e.Run()
	for name, err := range map[string]error{"read": readErr, "write": writeErr} {
		var ex *ErrFaultRetryExhausted
		if !errors.As(err, &ex) {
			t.Fatalf("%s fault: got %v, want ErrFaultRetryExhausted", name, err)
		}
		if ex.Node != 0 || ex.Obj != obj.ID || ex.Retries != maxFaultRetries {
			t.Errorf("%s fault: bad context %+v", name, ex)
		}
	}
	var ex *ErrFaultRetryExhausted
	errors.As(readErr, &ex)
	if ex.Page != 3 {
		t.Errorf("read fault page = %d, want 3", ex.Page)
	}
	errors.As(writeErr, &ex)
	if ex.Page != 5 {
		t.Errorf("write fault page = %d, want 5", ex.Page)
	}
}

// TestTouchBeyondObjectIsAnError maps 8 pages of a 4-page object: a touch
// past the object's end must fail with the fault path's bounds error, not
// index past the resident-page table.
func TestTouchBeyondObjectIsAnError(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	task := k.NewTask("t")
	obj := k.NewAnonymous(4)
	if _, err := task.Map.MapObject(0, obj, 0, 8, ProtWrite, InheritCopy); err != nil {
		t.Fatal(err)
	}
	for _, want := range []Prot{ProtRead, ProtWrite} {
		var ferr error
		e.Spawn("t", func(p *sim.Proc) { _, ferr = task.Touch(p, 6*PageSize, want) })
		e.Run()
		if ferr == nil || !strings.Contains(ferr.Error(), "vm: page 6 outside "+obj.ID.String()) {
			t.Fatalf("%v touch of page 6: got %v, want the page-outside-object error", want, ferr)
		}
	}
}

// TestCrashWakesWaitersInOrder blocks one proc on each of four objects
// behind a manager that never answers, then crashes the node. The procs
// resume as same-instant events, so their wake order is the order Crash
// fails the requests in — which must be ObjID order, not map order, on
// every fresh engine.
func TestCrashWakesWaitersInOrder(t *testing.T) {
	for run := 0; run < 50; run++ {
		e := sim.NewEngine()
		k := testKernel(e)
		mgr := &fakeMgr{k: k, supply: "none"}
		var woke []uint64
		for _, seq := range []uint64{3, 1, 4, 2} {
			obj := k.NewObject(ObjID{Node: 0, Seq: seq}, 4, mgr, CopyNone)
			task := k.NewTask("t")
			if _, err := task.Map.MapObject(0, obj, 0, 4, ProtRead, InheritShare); err != nil {
				t.Fatal(err)
			}
			e.Spawn("t", func(p *sim.Proc) {
				_, err := task.Touch(p, Addr(seq%4)*PageSize, ProtRead)
				var crashed *ErrNodeCrashed
				if !errors.As(err, &crashed) {
					t.Errorf("fault on %v: got %v, want ErrNodeCrashed", obj.ID, err)
				}
				woke = append(woke, seq)
			})
		}
		e.Schedule(time.Second, func() {
			if n := k.Crash(); n != 4 {
				t.Errorf("Crash failed %d requests, want 4", n)
			}
		})
		e.Run()
		if !slices.Equal(woke, []uint64{1, 2, 3, 4}) {
			t.Fatalf("run %d: waiters woke in object order %v, want [1 2 3 4]", run, woke)
		}
	}
}
