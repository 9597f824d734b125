package vm

import (
	"encoding/binary"
	"fmt"

	"asvm/internal/sim"
)

// Task is a user task: an address space plus helpers for touching memory
// from a proc. Memory accesses take a fast path (pure bookkeeping, no
// simulated time) when the page is resident with sufficient access, and
// enter the full fault path otherwise — mirroring hardware TLB/pmap hits
// vs. traps.
type Task struct {
	Name   string
	Kernel *Kernel
	Map    *Map
}

// NewTask creates a task with an empty address space.
func (k *Kernel) NewTask(name string) *Task {
	return &Task{Name: name, Kernel: k, Map: k.NewMap()}
}

// resolveFast returns the page satisfying (addr, want) if no fault is
// needed.
func (t *Task) resolveFast(addr Addr, want Prot) *Page {
	e := t.Map.Lookup(addr)
	if e == nil || !e.MaxProt.Allows(want) {
		return nil
	}
	if want == ProtWrite && e.NeedsCopy {
		return nil // symmetric copy must be evaluated first
	}
	idx := e.pageIndex(addr)
	for cur := e.Object; cur != nil; cur = cur.Shadow {
		pg := cur.Lookup(idx)
		if pg == nil {
			continue
		}
		if pg.Evicting || !pg.Lock.Allows(want) {
			return nil
		}
		if want == ProtWrite {
			if cur != e.Object {
				return nil // copy-on-write needed
			}
			if cur.Mgr == nil && cur.NeedsPush(idx) {
				return nil // local push needed
			}
			pg.Dirty = true
		}
		return pg
	}
	return nil
}

// Touch performs one memory access of the given kind at addr, faulting if
// necessary, and returns the page backing the access. Like a restarted
// instruction, the access is re-validated after each fault: the page may
// have been invalidated again between fault resolution and the access.
func (t *Task) Touch(p *sim.Proc, addr Addr, want Prot) (*Page, error) {
	for attempt := 0; attempt < 10000; attempt++ {
		if pg := t.resolveFast(addr, want); pg != nil {
			return pg, nil
		}
		if _, err := t.Kernel.Fault(p, t.Map, addr, want); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("vm: access livelock at %#x on node %d", addr, t.Kernel.Node)
}

// ReadU64 reads an 8-byte little-endian value at addr (TrackData runs
// only).
func (t *Task) ReadU64(p *sim.Proc, addr Addr) (uint64, error) {
	pg, err := t.Touch(p, addr, ProtRead)
	if err != nil {
		return 0, err
	}
	if pg.Data == nil {
		return 0, fmt.Errorf("vm: ReadU64 without TrackData")
	}
	off := int(addr % PageSize)
	if off+8 > PageSize {
		return 0, fmt.Errorf("vm: ReadU64 crosses page boundary at %#x", addr)
	}
	return binary.LittleEndian.Uint64(pg.Data[off:]), nil
}

// WriteU64 writes an 8-byte little-endian value at addr (TrackData runs
// only).
func (t *Task) WriteU64(p *sim.Proc, addr Addr, v uint64) error {
	pg, err := t.Touch(p, addr, ProtWrite)
	if err != nil {
		return err
	}
	if pg.Data == nil {
		return fmt.Errorf("vm: WriteU64 without TrackData")
	}
	off := int(addr % PageSize)
	if off+8 > PageSize {
		return fmt.Errorf("vm: WriteU64 crosses page boundary at %#x", addr)
	}
	binary.LittleEndian.PutUint64(pg.Data[off:], v)
	return nil
}

// Fork creates a same-node child task whose address space follows the
// inheritance attributes of this task's map.
func (t *Task) Fork(name string) *Task {
	return &Task{Name: name, Kernel: t.Kernel, Map: t.Map.ForkLocal()}
}
