// Package norma models Mach NORMA-IPC: the typed-message, port-based IPC
// the NORMA kernel distribution extends across nodes, and which XMM uses as
// its transport. Its defining property for this system is cost: every
// message pays heavy software overhead for typed-message marshalling and
// port-right translation — the paper measures NORMA-IPC at roughly 90 % of
// the latency of an XMM remote page fault. It runs over the same message
// processors and mesh as the STS, so it is one row of the simulated
// transport's cost table (sts.Costs), not a second message path.
package norma

import (
	"time"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/sts"
)

// DefaultCosts returns NORMA-IPC's row, calibrated so that one NORMA round
// trip with a page lands near the paper's measured XMM latencies
// (DESIGN.md §6).
func DefaultCosts() sts.Costs {
	return sts.Costs{
		Name:             "norma",
		SendCPU:          400 * time.Microsecond,
		RecvCPU:          450 * time.Microsecond,
		PortTranslateCPU: 150 * time.Microsecond,
		PerKBCPU:         25 * time.Microsecond,
		HeaderBytes:      256, // typed-message headers, NORMA interposition records
		RecvBufferMsgs:   32,
		RetransmitDelay:  4 * time.Millisecond,
	}
}

// New is sts.New. It stays because the benchmark module (bench/layers.go)
// builds its NORMA probe with norma.New.
func New(e *sim.Engine, net *mesh.Network, nodes []*node.Node, costs sts.Costs) *sts.Transport {
	return sts.New(e, net, nodes, costs)
}
