package xmm

import (
	"runtime"
	"runtime/debug"
	"testing"

	"asvm/internal/pager"
	"asvm/internal/vm"
)

// faultRig drives one page of an XMM object through the manager's three
// fault shapes by calling the proxies' vm.MemoryManager entry points — the
// calls a faulting kernel makes — on kernels that track no data, so what a
// fault allocates is the protocol's own plus the vm.Page it installs.
type faultRig struct {
	c    *cluster
	objs []*vm.Object
}

const rigPage = vm.PageIdx(5)

func newFaultRig() *faultRig {
	c := buildCluster(4, 0, false)
	srv := pager.NewServer(c.eng, c.tr, 0, nil, pager.DefaultCosts(), "rig", false)
	objs := SetupShared(vm.ObjID{Node: 0, Seq: 9100}, 16, c.xmms, 0,
		pager.NewClient(c.eng, c.tr, c.xmms[0].Self, srv))
	r := &faultRig{c: c, objs: objs}
	r.fault(1, vm.ProtWrite) // node 1 starts as the dirty writer
	return r
}

// fault requests access at node n and runs the protocol to completion.
func (r *faultRig) fault(n int, want vm.Prot) {
	o := r.objs[n]
	o.Mgr.DataRequest(o, rigPage, want)
	r.c.eng.Run()
	if want == vm.ProtWrite {
		o.Lookup(rigPage).Dirty = true // the task's store
	}
}

// The cycle's three faults. Each leaves the state the next one needs, and
// the last restores the first's: node 1 the page's dirty writer.
func (r *faultRig) readFlushingWriter()   { r.fault(2, vm.ProtRead) }  // 1 flushed to the pager, 2 reads
func (r *faultRig) writeFlushingReaders() { r.fault(3, vm.ProtWrite) } // readers 1 and 2 flushed
func (r *faultRig) writeFlushingDirty()   { r.fault(1, vm.ProtWrite) } // dirty writer 3 to the pager

func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFaultPathAllocs pins XMM's steady state: after warm-up, a read
// fault, a write fault that flushes two readers and a write fault that
// flushes a dirty writer to the pager each allocate at most the one
// vm.Page the kernel's InstallPage makes — no continuation closure, no
// page-table entry, no message box, no pager request.
func TestFaultPathAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("-race instrumentation allocates")
	}
	r := newFaultRig()
	steps := []struct {
		name string
		f    func()
	}{
		{"read fault", r.readFlushingWriter},
		{"write fault flushing two readers", r.writeFlushingReaders},
		{"write fault flushing a dirty writer", r.writeFlushingDirty},
	}
	for i := 0; i < 3; i++ { // warm up the pools, tables and engine heap
		for _, s := range steps {
			s.f()
		}
	}
	// A GC cycle mallocs on the runtime's own account; keep it out. The
	// runtime can still malloc for itself now and then, so each step keeps
	// its best of five batches: a per-fault allocation shows in every one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds, batches = 20, 5
	best := [3]uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	for b := 0; b < batches; b++ {
		var got [3]uint64
		for i := 0; i < rounds; i++ {
			for j, s := range steps {
				got[j] += mallocs(s.f)
			}
		}
		for j := range best {
			best[j] = min(best[j], got[j])
		}
	}
	for j, s := range steps {
		if best[j] > rounds {
			t.Errorf("%s: %.2f mallocs, want <= 1 (the installed vm.Page)", s.name, float64(best[j])/rounds)
		}
	}
	mgr := r.c.xmms[0]
	if mgr.Ctr.Get("mgr_dirty_to_pager") < 2*rounds*batches || mgr.Ctr.Get("mgr_flushes") < 5*rounds*batches {
		t.Fatalf("the cycle did not exercise the flush paths: %d dirty-to-pager, %d flushes",
			mgr.Ctr.Get("mgr_dirty_to_pager"), mgr.Ctr.Get("mgr_flushes"))
	}
}

// BenchmarkXMMFault is one turn of the rig's cycle: a read fault that
// flushes the dirty writer to the pager, a write fault that flushes two
// readers, and a write fault that flushes a dirty writer to the pager —
// three faults, five flushes and five pager round trips. Run with
// -benchmem: 3 allocs/op, the installed pages.
func BenchmarkXMMFault(b *testing.B) {
	r := newFaultRig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.readFlushingWriter()
		r.writeFlushingReaders()
		r.writeFlushingDirty()
	}
}

// raceBuild reports a -race test binary, whose instrumentation allocates
// on its own account.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
