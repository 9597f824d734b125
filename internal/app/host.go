// Package app is the portable application layer: one workload API that
// runs identically on the deterministic simulator and on the real TCP
// mesh. The portable seam is Mem, the shared-memory operations both
// backends serve, and Env, a sequential op-stream executor that hands each
// step a Mem; app/simhost (machine+vm+sim) and app/dsmhost (internal/dsm)
// implement both. Host extends Mem with the simulator's amenities (other
// nodes, tasks, forks, barriers, virtual time): only app/simhost provides
// it. The thin-API-over-interchangeable-transports shape follows the
// user-level DSM systems of the era (Ramesh & Varadarajan): an op stream
// never names the backend, so the same code measures modelled 1996
// Paragon costs and real wire time.
package app

import (
	"errors"
	"time"
)

// ErrUnsupported is returned by a Mem operation a backend cannot serve:
// an object other than the real mesh's one region, or range locks under
// XMM.
var ErrUnsupported = errors.New("app: operation not supported by this host")

// Mem is one node's shared-memory operations: the portable seam every
// backend serves. Objects are dense indices into the world's object table
// (a single shared region is object 0); offsets are byte offsets from the
// object's start. On the simulator every call runs in virtual time on the
// calling proc's node; on the real mesh it runs on the wall clock against
// the node's daemon.
type Mem interface {
	// Read faults the datum's page in for reading and returns the value
	// (zero when the backend does not track data contents). Write faults
	// the page for writing and stores the value (the store is skipped
	// when data is untracked — the fault is the measured event).
	Read(obj int, off int64) (uint64, error)
	Write(obj int, off int64, val uint64) error

	// Lock acquires object pages [lo, hi) for exclusive use (range locks
	// ride the ownership protocol); Unlock releases them.
	Lock(obj int, lo, hi int64) error
	Unlock(obj int, lo, hi int64) error
}

// Host is one node's view of the simulated shared-memory system: Mem plus
// the amenities the simulator's workload threads use. app/simhost alone
// implements it; it is not portable to the real mesh.
type Host interface {
	Mem

	// On returns a host bound to another node but the same thread of
	// control — driver-style workloads (the Table 1 microbenchmarks)
	// issue a sequential op stream across many nodes from one thread.
	On(node int) Host

	// Open attaches this node to an object; Close detaches it. Every
	// object is mapped up front, so both are free — they gate which
	// objects the workload may touch, mirroring tenant churn.
	Open(obj int) error
	Close(obj int) error

	// Fork copies this host's task to another node under the system's
	// copy-inheritance semantics and returns a host bound to the child
	// (the Figure 11 fork chains).
	Fork(node int, name string) (Host, error)

	// Barrier synchronizes one thread per node across the whole machine;
	// id names the barrier (stable across calls).
	Barrier(id int) error

	// Now is virtual time. Sleep models local computation between memory
	// accesses.
	Now() time.Duration
	Sleep(d time.Duration)
}
