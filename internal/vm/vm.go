// Package vm is a faithful-but-simplified model of the Mach kernel's
// virtual memory system, per node: address maps, VM objects with
// shadow/copy chains, the symmetric and asymmetric delayed-copy strategies,
// a resident-page cache over bounded physical memory, and the External
// Memory Management Interface (EMMI) — including the five extensions the
// ASVM paper adds (lock_request/data_supply "mode" arguments,
// lock_completed "result", and pull_request/pull_completed).
//
// One Kernel instance exists per simulated node. Protocol layers (the XMM
// baseline, ASVM, and plain pagers) plug in as MemoryManager
// implementations; the kernel talks to them exactly the way Mach talks to
// an external pager, and they answer through the Kernel's control methods
// (DataSupply, LockRequest, PullRequest, ...).
package vm

import (
	"fmt"
	"time"

	"asvm/internal/mesh"
)

// PageSize is the machine page size in bytes (Paragon: 8 KByte).
const PageSize = 8192

// PageShift is log2(PageSize).
const PageShift = 13

// Addr is a virtual address within a task's address space.
type Addr uint64

// PageIdx is a page index within a memory object.
type PageIdx int64

// Prot is an access right. Write implies Read.
type Prot int

// Access rights in increasing order of strength.
const (
	ProtNone Prot = iota
	ProtRead
	ProtWrite
)

// Allows reports whether holding p satisfies a request for want.
func (p Prot) Allows(want Prot) bool { return p >= want }

// String implements fmt.Stringer.
func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtRead:
		return "read"
	case ProtWrite:
		return "write"
	default:
		return fmt.Sprintf("Prot(%d)", int(p))
	}
}

// ObjID names a memory object globally: the node that created it plus a
// per-node sequence number. Shared objects keep the same ID on every node;
// node-private anonymous objects never leave their node.
type ObjID struct {
	Node mesh.NodeID
	Seq  uint64
}

// String implements fmt.Stringer.
func (id ObjID) String() string { return fmt.Sprintf("obj%d.%d", id.Node, id.Seq) }

// CopyStrategy selects how delayed copies of an object are made (Mach's
// MEMORY_OBJECT_COPY_*).
type CopyStrategy int

// Copy strategies.
const (
	// CopyNone forbids delayed copies: copying is eager.
	CopyNone CopyStrategy = iota
	// CopySymmetric freezes the source by interposing shadow objects at
	// write faults (used for anonymous memory).
	CopySymmetric
	// CopyAsymmetric creates a copy object up front and pushes pages into it
	// before source writes (used when source changes must reach the pager,
	// e.g. mapped files — and by ASVM for all cross-node copies).
	CopyAsymmetric
)

// InheritMode says what fork does with a map entry (Mach's VM_INHERIT_*).
type InheritMode int

// Inheritance modes.
const (
	InheritNone InheritMode = iota
	InheritShare
	InheritCopy
)

// Costs holds the CPU-time constants of the VM layer. They model i860XP
// kernel path lengths and are part of the calibration surface documented in
// machine.Params.
type Costs struct {
	// FaultBase is the trap + map lookup + object chain walk entry cost.
	FaultBase time.Duration
	// PmapEnter is the cost of entering a translation into the pmap.
	PmapEnter time.Duration
	// PageCopy is the cost of copying one page memory-to-memory.
	PageCopy time.Duration
	// PageZero is the cost of zero-filling a page.
	PageZero time.Duration
	// EMMILocal is the cost of one kernel<->manager interface crossing on
	// the same node (message marshalling through a local port).
	EMMILocal time.Duration
}

// DefaultCosts returns calibrated defaults (see DESIGN.md §6).
func DefaultCosts() Costs {
	return Costs{
		FaultBase: 1050 * time.Microsecond,
		PmapEnter: 50 * time.Microsecond,
		PageCopy:  120 * time.Microsecond,
		PageZero:  80 * time.Microsecond,
		EMMILocal: 450 * time.Microsecond,
	}
}

// PullResult is the outcome of a memory_object_pull_request (EMMI
// extension; paper §3.7.1).
type PullResult int

// Pull results, matching the paper's three cases.
const (
	// PullZeroFill: the page is not available anywhere in the chain and can
	// be zero-filled.
	PullZeroFill PullResult = iota
	// PullData: the page was found and its contents are returned.
	PullData
	// PullAskManager: a shadow object with its own memory manager was
	// reached; that manager must be asked for the page.
	PullAskManager
)

// String implements fmt.Stringer.
func (r PullResult) String() string {
	switch r {
	case PullZeroFill:
		return "zero-fill"
	case PullData:
		return "data"
	case PullAskManager:
		return "ask-manager"
	default:
		return fmt.Sprintf("PullResult(%d)", int(r))
	}
}
