package vm

import (
	"fmt"
	"slices"

	"asvm/internal/sim"
)

// Map is a task address space: a sorted list of entries mapping address
// ranges to memory objects.
type Map struct {
	Kernel  *Kernel
	entries []*Entry
}

// Entry maps [Start, End) to Object starting at page OffsetPages.
type Entry struct {
	Start, End  Addr
	Object      *Object
	OffsetPages PageIdx

	// NeedsCopy marks a symmetric delayed copy that has not yet been
	// evaluated: the first write fault interposes a shadow object.
	NeedsCopy bool

	// MaxProt caps the access this mapping permits.
	MaxProt Prot

	// Inherit controls what Fork does with this entry.
	Inherit InheritMode
}

// pageIndex translates an address covered by the entry to an object page.
func (e *Entry) pageIndex(addr Addr) PageIdx {
	return PageIdx((addr-e.Start)>>PageShift) + e.OffsetPages
}

// Pages returns the number of pages the entry spans.
func (e *Entry) Pages() PageIdx { return PageIdx((e.End - e.Start) >> PageShift) }

// NewMap returns an empty address space on kernel k.
func (k *Kernel) NewMap() *Map { return &Map{Kernel: k} }

// MapObject enters object o into the address space at start for lenPages
// pages beginning at object page offsetPages, at its place in address
// order. Overlapping mappings are rejected.
func (m *Map) MapObject(start Addr, o *Object, offsetPages, lenPages PageIdx, prot Prot, inherit InheritMode) (*Entry, error) {
	if start%PageSize != 0 {
		return nil, fmt.Errorf("vm: unaligned mapping at %#x", start)
	}
	if lenPages <= 0 {
		return nil, fmt.Errorf("vm: empty mapping")
	}
	end := start + Addr(lenPages)*PageSize
	at := 0 // entries below start
	for _, e := range m.entries {
		if start < e.End && e.Start < end {
			return nil, fmt.Errorf("vm: mapping [%#x,%#x) overlaps [%#x,%#x)", start, end, e.Start, e.End)
		}
		if e.Start < start {
			at++
		}
	}
	entry := &Entry{
		Start: start, End: end,
		Object: o, OffsetPages: offsetPages,
		MaxProt: prot, Inherit: inherit,
	}
	m.entries = slices.Insert(m.entries, at, entry)
	return entry, nil
}

// Lookup returns the entry containing addr, or nil.
func (m *Map) Lookup(addr Addr) *Entry {
	// Binary search over sorted entries.
	lo, hi := 0, len(m.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		e := m.entries[mid]
		switch {
		case addr < e.Start:
			hi = mid
		case addr >= e.End:
			lo = mid + 1
		default:
			return e
		}
	}
	return nil
}

// Entries returns the map's entries (shared slice; callers must not
// mutate).
func (m *Map) Entries() []*Entry { return m.entries }

// ForkLocal creates a same-node copy of the address space following each
// entry's inheritance mode, exactly like a local fork():
//
//   - InheritShare: parent and child reference the same object.
//   - InheritCopy with the symmetric strategy: both sides keep referencing
//     the object with NeedsCopy set; the first write on either side
//     interposes a shadow object (Figure 2).
//   - InheritCopy with the asymmetric strategy: a copy object is created
//     now and linked into the copy chain (Figure 3).
//   - InheritNone: the child does not get the entry.
//
// The child's entries come out in the parent's order, so already sorted.
func (m *Map) ForkLocal() *Map {
	k := m.Kernel
	child := k.NewMap()
	for _, e := range m.entries {
		switch e.Inherit {
		case InheritNone:
			continue
		case InheritShare:
			ce := &Entry{Start: e.Start, End: e.End, Object: e.Object,
				OffsetPages: e.OffsetPages, MaxProt: e.MaxProt, Inherit: e.Inherit}
			child.entries = append(child.entries, ce)
		case InheritCopy:
			switch e.Object.Strategy {
			case CopyAsymmetric:
				cp := k.CopyAsymmetric(e.Object)
				ce := &Entry{Start: e.Start, End: e.End, Object: cp,
					OffsetPages: e.OffsetPages, MaxProt: e.MaxProt, Inherit: e.Inherit}
				child.entries = append(child.entries, ce)
			default: // symmetric (and CopyNone treated as symmetric here)
				e.NeedsCopy = true
				ce := &Entry{Start: e.Start, End: e.End, Object: e.Object,
					OffsetPages: e.OffsetPages, MaxProt: e.MaxProt,
					Inherit: e.Inherit, NeedsCopy: true}
				child.entries = append(child.entries, ce)
			}
		}
	}
	return child
}

// CopyAsymmetric creates a delayed copy of src using the asymmetric
// strategy: the new object shadows src, and is spliced into src's copy
// chain immediately after it (any previous newest copy is re-shadowed onto
// the new one). src's version counter advances so subsequent writes know to
// push (paper §3.7.2).
func (k *Kernel) CopyAsymmetric(src *Object) *Object {
	cp := k.NewObject(k.NextID(), src.SizePages, nil, CopyAsymmetric)
	k.LinkCopy(src, cp)
	return cp
}

// LinkCopy splices an existing object cp into src's copy chain as the
// newest copy. Exposed so distribution layers (ASVM) can build cross-node
// copy relationships out of objects they manage.
func (k *Kernel) LinkCopy(src, cp *Object) {
	cp.Shadow = src
	if old := src.Copy; old != nil {
		old.Shadow = cp
	}
	src.Copy = cp
	src.Version++
	k.Ctr.V[sim.CtrAsymCopies]++
}
