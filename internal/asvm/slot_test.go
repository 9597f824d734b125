package asvm

import (
	"reflect"
	"testing"
	"unsafe"

	"asvm/internal/mesh"
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
