package norma

import (
	"testing"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// TestMessagePathZeroAllocs guards NORMA's steady-state message path the
// way the sts test of that name guards the STS: a message in flight is a
// pooled delivery, so neither a round trip nor a flow-control retransmit
// allocates. A nack bounce allocates only the xport.Nack its handler
// receives (a struct boxed in an interface), never the transport's stages.
func TestMessagePathZeroAllocs(t *testing.T) {
	const k = 4
	eng := sim.NewEngine()
	net := mesh.New(eng, k+1, mesh.DefaultConfig(k+1))
	nodes := make([]*node.Node, k+1)
	for i := range nodes {
		nodes[i] = node.New(eng, mesh.NodeID(i))
	}
	costs := DefaultCosts()
	costs.RecvBufferMsgs = 2
	tr := New(eng, net, nodes, costs)
	proto := xport.RegisterProto("bench")
	dead := xport.RegisterProto("bench-dead")
	tr.Register(1, proto, func(src mesh.NodeID, m interface{}) {
		if src == 0 {
			tr.Send(1, 0, proto, vm.PageSize, m)
		}
	})
	tr.Register(0, proto, func(src mesh.NodeID, m interface{}) {})
	tr.Register(0, dead, func(src mesh.NodeID, m interface{}) {})
	msg := struct{ pg int }{pg: 7}

	cases := []struct {
		name string
		op   func()
		max  float64
		retx bool // the case must fill the receive buffers
	}{
		{"round-trip", func() { tr.Send(0, 1, proto, 0, msg) }, 0, false},
		{"burst-retransmit", func() {
			for i := 0; i < 8; i++ {
				for s := 2; s <= k; s++ {
					tr.Send(mesh.NodeID(s), 1, proto, vm.PageSize, msg)
				}
			}
		}, 0, true},
		{"nack-bounce", func() { tr.Send(0, 1, dead, 0, msg) },
			testing.AllocsPerRun(100, func() { nackSink = xport.Nack{Dst: 1, Proto: dead, Msg: msg} }), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Warm the delivery/hop pools first; the contract is steady state.
			for i := 0; i < 64; i++ {
				c.op()
				eng.Run()
			}
			before := tr.Retransmits
			allocs := testing.AllocsPerRun(500, func() {
				c.op()
				eng.Run()
			})
			if allocs > c.max {
				t.Fatalf("%.1f allocs/op, want at most %.0f", allocs, c.max)
			}
			if got := tr.Retransmits > before; got != c.retx {
				t.Fatalf("retransmitted: %v, want %v", got, c.retx)
			}
		})
	}
}

// nackSink keeps the calibration box for the nack case on the heap.
var nackSink interface{}
