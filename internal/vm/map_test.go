package vm

import (
	"slices"
	"testing"

	"asvm/internal/sim"
)

func TestMapObjectAndLookup(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	m := k.NewMap()
	o := k.NewAnonymous(16)
	entry, err := m.MapObject(0x40000, o, 0, 16, ProtWrite, InheritCopy)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Pages() != 16 {
		t.Fatalf("Pages = %d", entry.Pages())
	}
	if got := m.Lookup(0x40000); got != entry {
		t.Fatal("Lookup start failed")
	}
	if got := m.Lookup(0x40000 + 16*PageSize - 1); got != entry {
		t.Fatal("Lookup last byte failed")
	}
	if got := m.Lookup(0x40000 + 16*PageSize); got != nil {
		t.Fatal("Lookup past end succeeded")
	}
	if got := m.Lookup(0x3FFFF); got != nil {
		t.Fatal("Lookup before start succeeded")
	}

	// Mappings entered out of address order land in it: one above, one
	// below and one between the existing entries.
	for _, start := range []Addr{0x100000, 0, 0x80000} {
		if _, err := m.MapObject(start, o, 0, 16, ProtWrite, InheritCopy); err != nil {
			t.Fatal(err)
		}
	}
	var starts []Addr
	for _, en := range m.Entries() {
		starts = append(starts, en.Start)
		if got := m.Lookup(en.End - 1); got != en {
			t.Fatalf("Lookup(%#x) = %v, want the entry at %#x", en.End-1, got, en.Start)
		}
	}
	if want := []Addr{0, 0x40000, 0x80000, 0x100000}; !slices.Equal(starts, want) {
		t.Fatalf("entry starts %#x, want %#x", starts, want)
	}
}

func TestMapObjectRejectsOverlap(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	m := k.NewMap()
	o := k.NewAnonymous(16)
	if _, err := m.MapObject(0, o, 0, 8, ProtWrite, InheritCopy); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MapObject(4*PageSize, o, 0, 8, ProtWrite, InheritCopy); err == nil {
		t.Fatal("overlap accepted")
	}
	// Adjacent is fine.
	if _, err := m.MapObject(8*PageSize, o, 8, 8, ProtWrite, InheritCopy); err != nil {
		t.Fatal(err)
	}
}

func TestMapObjectRejectsUnaligned(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	m := k.NewMap()
	o := k.NewAnonymous(4)
	if _, err := m.MapObject(100, o, 0, 4, ProtWrite, InheritCopy); err == nil {
		t.Fatal("unaligned mapping accepted")
	}
	if _, err := m.MapObject(0, o, 0, 0, ProtWrite, InheritCopy); err == nil {
		t.Fatal("empty mapping accepted")
	}
}

func TestPageIndexWithOffset(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	m := k.NewMap()
	o := k.NewAnonymous(32)
	entry, _ := m.MapObject(0x100000, o, 10, 4, ProtWrite, InheritCopy)
	if idx := entry.pageIndex(0x100000); idx != 10 {
		t.Fatalf("pageIndex(start) = %d, want 10", idx)
	}
	if idx := entry.pageIndex(0x100000 + 3*PageSize + 5); idx != 13 {
		t.Fatalf("pageIndex = %d, want 13", idx)
	}
}

func TestProtOrdering(t *testing.T) {
	if !ProtWrite.Allows(ProtRead) || !ProtWrite.Allows(ProtWrite) {
		t.Fatal("write should allow read and write")
	}
	if ProtRead.Allows(ProtWrite) {
		t.Fatal("read should not allow write")
	}
	if !ProtRead.Allows(ProtNone) || !ProtNone.Allows(ProtNone) {
		t.Fatal("anything allows none")
	}
	if ProtNone.Allows(ProtRead) {
		t.Fatal("none should not allow read")
	}
}

func TestChainDepth(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	a := k.NewAnonymous(4)
	b := k.NewAnonymous(4)
	c := k.NewAnonymous(4)
	b.Shadow = a
	c.Shadow = b
	if d := c.ChainDepth(); d != 2 {
		t.Fatalf("ChainDepth = %d", d)
	}
	if d := a.ChainDepth(); d != 0 {
		t.Fatalf("ChainDepth = %d", d)
	}
}

func TestDestroyObjectFreesFrames(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	o := k.NewAnonymous(8)
	k.InstallPage(o, 0, nil, ProtWrite)
	k.InstallPage(o, 1, nil, ProtWrite)
	if k.Mem.ResidentPages != 2 {
		t.Fatalf("resident = %d", k.Mem.ResidentPages)
	}
	k.DestroyObject(o)
	if k.Mem.ResidentPages != 0 {
		t.Fatalf("resident after destroy = %d", k.Mem.ResidentPages)
	}
	if k.Object(o.ID) != nil {
		t.Fatal("object still registered")
	}
}

func TestPhysMemWatermarks(t *testing.T) {
	pm := NewPhysMem(100)
	pm.ResidentPages = 100
	if pm.NeedsEviction() {
		t.Fatal("at capacity should not trigger eviction")
	}
	pm.ResidentPages = 101
	if !pm.NeedsEviction() {
		t.Fatal("over capacity should trigger eviction")
	}
	if !pm.AboveLowWater() {
		t.Fatal("over capacity is above low water")
	}
	pm.ResidentPages = 90
	if pm.AboveLowWater() {
		t.Fatal("90/100 should be under the low watermark (93)")
	}
	if pm.FreePages() != 10 {
		t.Fatalf("FreePages = %d", pm.FreePages())
	}
}

func TestPhysMemUnlimited(t *testing.T) {
	pm := NewPhysMem(0)
	pm.ResidentPages = 1 << 20
	if pm.NeedsEviction() || pm.AboveLowWater() {
		t.Fatal("unlimited memory should never evict")
	}
	if pm.FreePages() <= 0 {
		t.Fatal("unlimited memory reports no free pages")
	}
}
