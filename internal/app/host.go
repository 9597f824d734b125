// Package app is the portable application layer: one workload API that
// runs identically on the deterministic simulator and on the real TCP
// mesh. Workloads program against Host (shared-memory operations bound to
// one node) and Env (a sequential op-stream executor); the two backends —
// app/simhost over machine+vm+sim, app/dsmhost over internal/dsm — supply
// the implementations. The thin-API-over-interchangeable-transports shape
// follows the user-level DSM systems of the era (Ramesh & Varadarajan):
// the application never names the backend, so the same code measures
// modelled 1996 Paragon costs and real wire time.
package app

import (
	"errors"
	"time"
)

// ErrUnsupported is returned by Host methods a backend cannot provide
// (e.g. barriers or copy-inherit forks on the one-region real mesh).
// Portable op-stream workloads restrict themselves to the subset every
// backend implements: Open/Close/Read/Write/Lock/Unlock.
var ErrUnsupported = errors.New("app: operation not supported by this host")

// Host is one node's view of the shared-memory system. Objects are dense
// indices into the world's object table (a single shared region is object
// 0); offsets are byte offsets from the object's start. On the simulator
// every call runs in virtual time on the calling proc's node; on the real
// mesh it runs on the wall clock against the node's daemon.
type Host interface {
	// On returns a host bound to another node but the same thread of
	// control — driver-style workloads (the Table 1 microbenchmarks)
	// issue a sequential op stream across many nodes from one thread.
	On(node int) Host

	// Open attaches this node to an object; Close detaches it. On
	// backends that map every object up front both are free — they gate
	// which objects the workload may touch, mirroring tenant churn.
	Open(obj int) error
	Close(obj int) error

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

	// Fork copies this host's task to another node under the system's
	// copy-inheritance semantics and returns a host bound to the child
	// (the Figure 11 fork chains). Real-mesh hosts return ErrUnsupported.
	Fork(node int, name string) (Host, error)

	// Barrier synchronizes one thread per node across the whole mesh;
	// id names the barrier (stable across calls). Real-mesh hosts return
	// ErrUnsupported: op-stream workloads are sequential by construction.
	Barrier(id int) error

	// Now is the host clock — virtual time on the simulator, wall time on
	// the mesh. Sleep models local computation between memory accesses.
	Now() time.Duration
	Sleep(d time.Duration)
}
