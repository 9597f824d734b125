package sts

import (
	"testing"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/xport"
)

// TestMessagePathZeroAllocs guards the steady-state STS round trip at
// 0 allocs/op, alongside the sim package's TestScheduleRunZeroAllocs: an
// allocation creeping into either hot path fails the build rather than
// silently moving the benchmark's sts.msgpath_allocs and
// sim.allocs_per_event.
func TestMessagePathZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	net := mesh.New(eng, 2, mesh.DefaultConfig(2))
	nodes := []*node.Node{node.New(eng, 0), node.New(eng, 1)}
	tr := New(eng, net, nodes, DefaultCosts())
	proto := xport.RegisterProto("bench")
	tr.Register(1, proto, func(src mesh.NodeID, m interface{}) {
		tr.Send(1, 0, proto, PageBytes, m)
	})
	tr.Register(0, proto, func(src mesh.NodeID, m interface{}) {})
	msg := struct{ pg int }{pg: 7}
	// Warm the delivery/hop pools first; the contract is steady state.
	for i := 0; i < 64; i++ {
		tr.Send(0, 1, proto, 0, msg)
		eng.Run()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		tr.Send(0, 1, proto, 0, msg)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("message path allocates %.1f allocs/op, want 0", allocs)
	}
}
