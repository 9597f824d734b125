package norma

import (
	"testing"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// BenchmarkMessagePath measures one request/grant round trip through
// NORMA-IPC, the same shape as the sts benchmark of that name: node 0
// sends a header-only request, node 1 answers with a page-bearing grant,
// and both handlers bump the protocol counter.
func BenchmarkMessagePath(b *testing.B) {
	eng := sim.NewEngine()
	net := mesh.New(eng, 2, mesh.DefaultConfig(2))
	nodes := []*node.Node{node.New(eng, 0), node.New(eng, 1)}
	tr := New(eng, net, nodes, DefaultCosts())
	ctr := sim.NewCounters()

	proto := xport.RegisterProto("bench")
	var done int
	tr.Register(1, proto, func(src mesh.NodeID, m interface{}) {
		ctr.V[sim.CtrMsgs]++
		tr.Send(1, 0, proto, vm.PageSize, m)
	})
	tr.Register(0, proto, func(src mesh.NodeID, m interface{}) {
		ctr.V[sim.CtrMsgs]++
		done++
	})

	msg := struct{ pg int }{pg: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(0, 1, proto, 0, msg)
		eng.Run()
	}
	if done != b.N {
		b.Fatalf("round trips: got %d, want %d", done, b.N)
	}
}
