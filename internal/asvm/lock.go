package asvm

import (
	"fmt"

	"asvm/internal/sim"
	"asvm/internal/vm"
)

// This file implements the paper's §6 extension: "ASVM primitives for
// locking a range of pages in a shared address space for the exclusive
// access of a particular task on a particular node", the building block
// for atomic read/write operations in the sketched striped file system
// (replacing the NORMA-IPC token server of the old scheme).
//
// A locked page is write-owned by this node and *held*: foreign access
// requests queue at the owner instead of stealing the page, and the
// pageout daemon skips it. Ranges are acquired in ascending page order, so
// two nodes locking overlapping ranges cannot deadlock.

// AcquireRange locks object pages [lo, hi) for exclusive access by this
// node. task must map the instance's object at base. Blocks the proc until
// every page is write-owned and held.
func (in *Instance) AcquireRange(p *sim.Proc, task *vm.Task, base vm.Addr, lo, hi vm.PageIdx) error {
	if lo < 0 || hi > in.info.SizePages || lo >= hi {
		return fmt.Errorf("asvm: bad lock range [%d,%d)", lo, hi)
	}
	for idx := lo; idx < hi; idx++ {
		addr := base + vm.Addr(idx)*vm.PageSize
		for attempt := 0; ; attempt++ {
			if attempt > 10000 {
				return fmt.Errorf("asvm: lock livelock on page %d", idx)
			}
			if _, err := task.Touch(p, addr, vm.ProtWrite); err != nil {
				return err
			}
			sl := in.slot(idx)
			if !sl.state.AtRest() {
				// Ownership was stolen (or is mid-operation) between the
				// fault resolving and now; go again.
				p.Yield()
				continue
			}
			sl.held = true
			in.nd.K.Pin(in.o, idx)
			in.nd.Ctr.V[sim.CtrRangeLocks]++
			break
		}
	}
	return nil
}

// ReleaseRange unlocks [lo, hi): held pages become ordinary owned pages
// and queued foreign requests are served. Pages in the range that are not
// held are skipped, so an empty range is a no-op.
func (in *Instance) ReleaseRange(lo, hi vm.PageIdx) error {
	if lo < 0 || hi > in.info.SizePages {
		return fmt.Errorf("asvm: bad unlock range [%d,%d)", lo, hi)
	}
	for idx := lo; idx < hi; idx++ {
		sl := in.slot(idx)
		if !sl.held {
			continue
		}
		sl.held = false
		in.nd.K.Unpin(in.o, idx)
		in.nd.Ctr.V[sim.CtrRangeUnlocks]++
		if !sl.state.Busy() {
			in.drainQueue(idx)
		}
	}
	return nil
}

// Held reports whether the page is currently range-locked by this node.
func (in *Instance) Held(idx vm.PageIdx) bool {
	return in.slots.get(idx).held
}
