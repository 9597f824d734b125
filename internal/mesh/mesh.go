// Package mesh models the Paragon's two-dimensional wormhole-routed mesh
// interconnect. Messages travel between nodes with a latency made of a
// per-hop routing delay plus serialization time at the sender's network
// interface; each node's outgoing NIC is a serial resource, so a node
// pushing many pages saturates and queues — the effect that bounds the
// file-pager transfer rates in the paper's Table 2.
package mesh

import (
	"fmt"
	"time"

	"asvm/internal/sim"
)

// NodeID identifies a node in the machine, 0..N-1.
type NodeID int

// Config describes the interconnect geometry and timing.
type Config struct {
	// Width and Height give the mesh dimensions; Width*Height >= number of
	// nodes. Node n sits at (n % Width, n / Width).
	Width, Height int

	// HopLatency is the wormhole routing delay per mesh hop.
	HopLatency time.Duration

	// BytesPerSecond is the link bandwidth (Paragon: 200 MB/s raw per
	// direction; effective payload bandwidth is lower).
	BytesPerSecond float64

	// SetupLatency is the fixed wire-level cost per message independent of
	// size (router setup, DMA initiation).
	SetupLatency time.Duration
}

// DefaultConfig returns Paragon-like interconnect parameters for n nodes,
// arranged in the squarest mesh that fits.
func DefaultConfig(n int) Config {
	w := 1
	for w*w < n {
		w++
	}
	h := (n + w - 1) / w
	return Config{
		Width:          w,
		Height:         h,
		HopLatency:     40 * time.Nanosecond,
		BytesPerSecond: 175e6, // effective payload bandwidth
		SetupLatency:   5 * time.Microsecond,
	}
}

// Network is the interconnect instance.
type Network struct {
	eng  *sim.Engine
	cfg  Config
	nics []*sim.Server // per-node outgoing NIC

	// hopPool recycles the in-flight stage objects of SendRun.
	hopPool []*hop
}

// New builds a network for nodes 0..n-1 using cfg.
func New(e *sim.Engine, n int, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Width*cfg.Height < n {
		panic(fmt.Sprintf("mesh: %dx%d mesh cannot hold %d nodes", cfg.Width, cfg.Height, n))
	}
	nw := &Network{eng: e, cfg: cfg}
	nw.nics = make([]*sim.Server, n)
	for i := range nw.nics {
		nw.nics[i] = sim.NewServer(e, fmt.Sprintf("nic%d", i))
	}
	return nw
}

// Coord returns the mesh coordinates of a node.
func (nw *Network) Coord(n NodeID) (x, y int) {
	return int(n) % nw.cfg.Width, int(n) / nw.cfg.Width
}

// Hops returns the XY-routing hop count between two nodes.
func (nw *Network) Hops(src, dst NodeID) int {
	sx, sy := nw.Coord(src)
	dx, dy := nw.Coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// WireLatency returns the in-flight latency for a message of the given size
// between src and dst, excluding sender NIC queueing.
func (nw *Network) WireLatency(src, dst NodeID, bytes int) time.Duration {
	hops := nw.Hops(src, dst)
	ser := nw.serialization(bytes)
	return nw.cfg.SetupLatency + time.Duration(hops)*nw.cfg.HopLatency + ser
}

func (nw *Network) serialization(bytes int) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / nw.cfg.BytesPerSecond * float64(time.Second))
}

// latencyChoiceSteps are the extra in-flight latency alternatives a
// schedule chooser may inject per message (choice point: can this delivery
// overtake, or be overtaken by, nearby protocol activity?). Alternative 0
// is always "none", so the default schedule is the unperturbed one. The
// steps bracket the per-message software costs, which is what makes
// reorderings against neighbouring sends reachable.
var latencyChoiceSteps = [...]time.Duration{0, 30 * time.Microsecond, 150 * time.Microsecond}

// chooseExtraLatency resolves the per-message latency choice point; it is
// free (one nil check inside Choose) when no chooser is installed.
func (nw *Network) chooseExtraLatency() time.Duration {
	return latencyChoiceSteps[nw.eng.Choose(sim.ChoiceLatency, len(latencyChoiceSteps))]
}

// hop is the pooled in-flight stage of a SendRun: it rides the sender NIC
// as a Runnable and, when serialization completes, schedules the message's
// wire flight to the final target. The pool is a plain slice — the engine
// is logically single-threaded, so no locking is needed.
type hop struct {
	nw     *Network
	flight time.Duration
	next   sim.Runnable
}

// Run implements sim.Runnable: serialization finished, enter the wire.
func (h *hop) Run() {
	nw, flight, next := h.nw, h.flight, h.next
	h.next = nil
	nw.hopPool = append(nw.hopPool, h)
	nw.eng.ScheduleRun(flight, next)
}

// SendRun transmits a message of the given size from src to dst and runs
// r at the destination when the last byte arrives. The sender's NIC is
// occupied for the serialization time, so concurrent sends from the same
// node queue behind each other; links are not modelled (the calibrated
// results treat the sender NIC as the bandwidth bottleneck). Loopback
// (src == dst) is delivered with only the setup latency. The in-flight
// stage is pooled, keeping the whole path allocation-free.
func (nw *Network) SendRun(src, dst NodeID, bytes int, r sim.Runnable) {
	if src == dst {
		nw.eng.ScheduleRun(nw.cfg.SetupLatency+nw.chooseExtraLatency(), r)
		return
	}
	ser := nw.serialization(bytes)
	flight := nw.cfg.SetupLatency + time.Duration(nw.Hops(src, dst))*nw.cfg.HopLatency + nw.chooseExtraLatency()
	var h *hop
	if n := len(nw.hopPool); n > 0 {
		h = nw.hopPool[n-1]
		nw.hopPool = nw.hopPool[:n-1]
	} else {
		h = &hop{nw: nw}
	}
	h.flight = flight
	h.next = r
	nw.nics[src].DoRun(ser, h)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
