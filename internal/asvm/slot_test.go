package asvm

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"asvm/internal/mesh"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// TestPageSlotIsPointerFree pins the slot table's layout: no field of
// pageSlot, at any depth, is a pointer, slice, map, interface, func, chan
// or string, so the garbage collector never scans a domain's slots — and a
// slot stays within 56 bytes.
func TestPageSlotIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.String:
			t.Errorf("%s is a %v: pageSlot must hold no pointers", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("pageSlot", reflect.TypeOf(pageSlot{}))
	if size := unsafe.Sizeof(pageSlot{}); size > 56 {
		t.Errorf("pageSlot is %d bytes, want <= 56", size)
	}
}

// BenchmarkNewInstance measures one node's instance of a 28,000-page
// domain (the EM3D table's size): the slot table and the vm object's
// resident-page table. Run with -benchmem; the instance is torn down
// outside the timer.
func BenchmarkNewInstance(b *testing.B) {
	c := newCluster(b, 1, 0, DefaultConfig())
	nd := c.asvms[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		info := NewDomain(vm.ObjID{Node: 0, Seq: uint64(i) + 1}, 28000, 0, []mesh.NodeID{0}, DefaultConfig())
		in := AddNode(info, nd)
		b.StopTimer()
		nd.K.DestroyObject(in.o)
		delete(nd.instances, info.ID)
		b.StartTimer()
	}
}

// TestUntouchedAttachMallocs bounds what an attached but untouched (node,
// object) pair allocates — the scale cell's shape: 16 objects of 8 pages
// mapped on every node, while each node touches a few. Such a pair costs
// four allocations — its Instance, the slot directory, its vm.Object and
// that object's page table — plus its share of the node's and the domain's
// maps (≈ 0.8); every other table is made on its first write (≈ 18 in all
// when they were eager). Two nodes then write and read one object, so the
// lazily made tables are exercised too.
func TestUntouchedAttachMallocs(t *testing.T) {
	if raceBuild() {
		t.Skip("-race instrumentation allocates")
	}
	const nodes, objects, pages = 64, 16, 8
	c := newCluster(t, nodes, 0, DefaultConfig())
	mapping := make([]mesh.NodeID, nodes)
	for i := range mapping {
		mapping[i] = mesh.NodeID(i)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC cycle mallocs for itself
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	infos := make([]*DomainInfo, objects)
	for o := range infos {
		infos[o] = NewDomain(vm.ObjID{Node: 0, Seq: uint64(o) + 1}, pages, mesh.NodeID(o), mapping, DefaultConfig())
		for _, nd := range c.asvms {
			AddNode(infos[o], nd)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / (nodes * objects)
	t.Logf("%d (node, object) pairs: %d mallocs, %.2f per pair", nodes*objects, after.Mallocs-before.Mallocs, per)
	if per > 5.5 {
		t.Errorf("%.2f mallocs per untouched (node, object) pair, want <= 5.5", per)
	}

	tasks := make([]*vm.Task, 2)
	for i := range tasks {
		tasks[i] = c.asvms[i].K.NewTask("t")
		if _, err := tasks[i].Map.MapObject(0, c.asvms[i].Instance(infos[0].ID).Obj(), 0, pages, vm.ProtWrite, vm.InheritShare); err != nil {
			t.Fatal(err)
		}
	}
	c.run(t, func(p *sim.Proc) error {
		for pg := 0; pg < pages; pg++ {
			addr := vm.Addr(pg * vm.PageSize)
			if err := tasks[pg%2].WriteU64(p, addr, uint64(pg+1)); err != nil {
				return err
			}
			if v, err := tasks[1-pg%2].ReadU64(p, addr); err != nil || v != uint64(pg+1) {
				t.Errorf("page %d reads %d, %v; want %d", pg, v, err, pg+1)
			}
		}
		return nil
	})
	if err := CheckInvariants(c.cl(), infos[0]); err != nil {
		t.Fatal(err)
	}
}
