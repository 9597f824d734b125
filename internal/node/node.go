// Package node models the per-node hardware resources of the Paragon that
// the memory system competes for: the dedicated message co-processor that
// handles all protocol traffic serially, and (on I/O nodes) a disk.
package node

import (
	"fmt"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/sim"
)

// Node is one Paragon node's shared resources.
type Node struct {
	ID mesh.NodeID

	// MsgProc is the dedicated message processor: every incoming and
	// outgoing protocol message consumes serial time here. Contention on
	// this server is what melts centralized managers at scale.
	MsgProc *sim.Server

	// Disk is non-nil on I/O nodes.
	Disk *Disk
}

// New creates a node without a disk.
func New(e *sim.Engine, id mesh.NodeID) *Node {
	return &Node{
		ID:      id,
		MsgProc: sim.NewServer(e, fmt.Sprintf("msgproc%d", id)),
	}
}

// AttachDisk gives the node a disk with the given characteristics. Writes
// pay the same positioning cost as reads unless SetWriteSeek raises it
// (1996 paging spaces allocated blocks on the write path, making pageouts
// much slower than pageins).
func (n *Node) AttachDisk(e *sim.Engine, seek time.Duration, bytesPerSecond float64) *Disk {
	n.Disk = &Disk{
		srv:            sim.NewServer(e, fmt.Sprintf("disk%d", n.ID)),
		SeekTime:       seek,
		WriteSeek:      seek,
		BytesPerSecond: bytesPerSecond,
	}
	return n.Disk
}

// Disk is a serial storage device: each operation pays a positioning cost
// plus transfer time, and operations queue.
type Disk struct {
	srv            *sim.Server
	SeekTime       time.Duration // read positioning
	WriteSeek      time.Duration // write positioning (+ allocation)
	BytesPerSecond float64

	// Stats.
	Reads, Writes           uint64
	BytesRead, BytesWritten uint64
}

// SetWriteSeek overrides the write positioning cost.
func (d *Disk) SetWriteSeek(seek time.Duration) { d.WriteSeek = seek }

func (d *Disk) xferTime(bytes int) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / d.BytesPerSecond * float64(time.Second))
}

// Read performs a read of the given size; r runs at completion (a closure
// goes in as a sim.Func).
func (d *Disk) Read(bytes int, r sim.Runnable) {
	d.Reads++
	d.BytesRead += uint64(bytes)
	d.srv.DoRun(d.SeekTime+d.xferTime(bytes), r)
}

// Write performs a write of the given size; r runs at completion.
func (d *Disk) Write(bytes int, r sim.Runnable) {
	d.Writes++
	d.BytesWritten += uint64(bytes)
	d.srv.DoRun(d.WriteSeek+d.xferTime(bytes), r)
}

// Busy reports whether the disk has queued work.
func (d *Disk) Busy() bool { return !d.srv.Idle() }

// Server exposes the underlying serial server for accounting.
func (d *Disk) Server() *sim.Server { return d.srv }
