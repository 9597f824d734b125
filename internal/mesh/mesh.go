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

	// LinkContention additionally models occupancy of every directed mesh
	// link along a message's XY route: concurrent messages crossing the
	// same links queue behind each other. Off by default — the calibrated
	// results treat the sender NIC as the bandwidth bottleneck, which is
	// accurate until bisection traffic dominates.
	LinkContention bool
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

	// linkBusy tracks per-directed-link occupancy when LinkContention is
	// on, keyed by the link's source node and direction.
	linkBusy map[linkKey]time.Duration

	// hopPool recycles the in-flight stage objects of SendRun.
	hopPool []*hop

	// Stats counts traffic.
	Stats struct {
		Messages     uint64
		Bytes        uint64
		LinkStalls   uint64
		LinkStallDur time.Duration
	}
}

// linkKey identifies a directed link leaving a node.
type linkKey struct {
	from NodeID
	dir  int // 0 +x, 1 -x, 2 +y, 3 -y
}

// New builds a network for nodes 0..n-1 using cfg.
func New(e *sim.Engine, n int, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Width*cfg.Height < n {
		panic(fmt.Sprintf("mesh: %dx%d mesh cannot hold %d nodes", cfg.Width, cfg.Height, n))
	}
	nw := &Network{eng: e, cfg: cfg, linkBusy: make(map[linkKey]time.Duration)}
	nw.nics = make([]*sim.Server, n)
	for i := range nw.nics {
		nw.nics[i] = sim.NewServer(e, fmt.Sprintf("nic%d", i))
	}
	return nw
}

// Size returns the number of nodes attached to the network.
func (nw *Network) Size() int { return len(nw.nics) }

// Config returns the interconnect configuration.
func (nw *Network) Config() Config { return nw.cfg }

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

// Send transmits a message of the given size from src to dst and runs
// deliver at the destination when the last byte arrives. The sender's NIC
// is occupied for the serialization time, so concurrent sends from the same
// node queue behind each other. Loopback (src == dst) is delivered with
// only the setup latency.
func (nw *Network) Send(src, dst NodeID, bytes int, deliver func()) {
	nw.Stats.Messages++
	nw.Stats.Bytes += uint64(bytes)
	if src == dst {
		nw.eng.Schedule(nw.cfg.SetupLatency+nw.chooseExtraLatency(), deliver)
		return
	}
	ser := nw.serialization(bytes)
	flight := nw.cfg.SetupLatency + time.Duration(nw.Hops(src, dst))*nw.cfg.HopLatency + nw.chooseExtraLatency()
	nw.nics[src].Do(ser, func() {
		if nw.cfg.LinkContention {
			stall := nw.occupyRoute(src, dst, ser)
			if stall > 0 {
				nw.Stats.LinkStalls++
				nw.Stats.LinkStallDur += stall
			}
			nw.eng.Schedule(stall+flight, deliver)
			return
		}
		nw.eng.Schedule(flight, deliver)
	})
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

// SendRun transmits like Send but resumes a Runnable at the destination
// instead of calling a closure, keeping the whole path allocation-free.
// The LinkContention configuration (off in all calibrated runs) falls back
// to the closure path, which is the only place route occupancy is modelled.
func (nw *Network) SendRun(src, dst NodeID, bytes int, r sim.Runnable) {
	if nw.cfg.LinkContention {
		nw.Send(src, dst, bytes, r.Run)
		return
	}
	nw.Stats.Messages++
	nw.Stats.Bytes += uint64(bytes)
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

// occupyRoute reserves every directed link on the XY route for the
// message's serialization time (a wormhole burst occupies the whole path
// at once). It returns how long the message must stall for the most
// loaded link to free up.
func (nw *Network) occupyRoute(src, dst NodeID, ser time.Duration) time.Duration {
	now := nw.eng.Now()
	avail := now
	route := nw.route(src, dst)
	for _, lk := range route {
		if b := nw.linkBusy[lk]; b > avail {
			avail = b
		}
	}
	for _, lk := range route {
		nw.linkBusy[lk] = avail + ser
	}
	return avail - now
}

// route lists the directed links of the XY path from src to dst.
func (nw *Network) route(src, dst NodeID) []linkKey {
	sx, sy := nw.Coord(src)
	dx, dy := nw.Coord(dst)
	var out []linkKey
	x, y := sx, sy
	for x != dx {
		if dx > x {
			out = append(out, linkKey{nw.nodeAt(x, y), 0})
			x++
		} else {
			out = append(out, linkKey{nw.nodeAt(x, y), 1})
			x--
		}
	}
	for y != dy {
		if dy > y {
			out = append(out, linkKey{nw.nodeAt(x, y), 2})
			y++
		} else {
			out = append(out, linkKey{nw.nodeAt(x, y), 3})
			y--
		}
	}
	return out
}

// nodeAt maps mesh coordinates back to a node id.
func (nw *Network) nodeAt(x, y int) NodeID {
	return NodeID(y*nw.cfg.Width + x)
}

// NIC exposes a node's outgoing NIC server for accounting in tests and
// experiments.
func (nw *Network) NIC(n NodeID) *sim.Server { return nw.nics[n] }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
