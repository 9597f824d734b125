package norma

import (
	"testing"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/sts"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// BenchmarkMessagePath measures one request/grant round trip through the
// simulated transport under each cost row: node 0 sends a header-only
// request, node 1 answers with a page-bearing grant, and both handlers bump
// the protocol counter — the steady-state message path every fault
// exercises.
func BenchmarkMessagePath(b *testing.B) {
	proto := xport.RegisterProto("bench")
	for _, costs := range []sts.Costs{sts.DefaultCosts(), DefaultCosts()} {
		b.Run(costs.Name, func(b *testing.B) {
			eng := sim.NewEngine()
			net := mesh.New(eng, 2, mesh.DefaultConfig(2))
			nodes := []*node.Node{node.New(eng, 0), node.New(eng, 1)}
			tr := sts.New(eng, net, nodes, costs)
			ctr := sim.NewCounters()

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
		})
	}
}
