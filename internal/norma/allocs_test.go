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

// TestMessagePathZeroAllocs guards the simulated transport's steady-state
// message path under both cost rows, alongside the sim package's
// TestScheduleRunZeroAllocs: a message in flight is a pooled delivery, so
// neither a round trip nor a flow-control retransmit allocates, and an
// allocation creeping in fails the build rather than silently moving the
// benchmark's sts.msgpath_allocs and sim.allocs_per_event. A nack bounce
// allocates only the xport.Nack its handler receives (a struct boxed in an
// interface), never the transport's stages. The unprefixed cases run the
// NORMA row with two receive buffers, so a burst must retransmit.
func TestMessagePathZeroAllocs(t *testing.T) {
	const k = 4
	proto := xport.RegisterProto("bench")
	dead := xport.RegisterProto("bench-dead")
	msg := struct{ pg int }{pg: 7}
	nackAllocs := testing.AllocsPerRun(100, func() { nackSink = xport.Nack{Dst: 1, Proto: dead, Msg: msg} })
	roundTrip := func(tr *sts.Transport) { tr.Send(0, 1, proto, 0, msg) }
	nackBounce := func(tr *sts.Transport) { tr.Send(0, 1, dead, 0, msg) }
	burst := func(tr *sts.Transport) {
		for i := 0; i < 8; i++ {
			for s := 2; s <= k; s++ {
				tr.Send(mesh.NodeID(s), 1, proto, vm.PageSize, msg)
			}
		}
	}
	flow := DefaultCosts()
	flow.RecvBufferMsgs = 2

	cases := []struct {
		name  string
		costs sts.Costs
		op    func(*sts.Transport)
		max   float64
		retx  bool // the case must fill the receive buffers
	}{
		{"sts-round-trip", sts.DefaultCosts(), roundTrip, 0, false},
		{"sts-nack-bounce", sts.DefaultCosts(), nackBounce, nackAllocs, false},
		{"round-trip", flow, roundTrip, 0, false},
		{"burst-retransmit", flow, burst, 0, true},
		{"nack-bounce", flow, nackBounce, nackAllocs, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			net := mesh.New(eng, k+1, mesh.DefaultConfig(k+1))
			nodes := make([]*node.Node, k+1)
			for i := range nodes {
				nodes[i] = node.New(eng, mesh.NodeID(i))
			}
			tr := sts.New(eng, net, nodes, c.costs)
			tr.Register(1, proto, func(src mesh.NodeID, m interface{}) {
				if src == 0 {
					tr.Send(1, 0, proto, vm.PageSize, m)
				}
			})
			tr.Register(0, proto, func(src mesh.NodeID, m interface{}) {})
			tr.Register(0, dead, func(src mesh.NodeID, m interface{}) {})
			// Warm the delivery/hop pools first; the contract is steady state.
			for i := 0; i < 64; i++ {
				c.op(tr)
				eng.Run()
			}
			before := tr.Retransmits
			allocs := testing.AllocsPerRun(500, func() {
				c.op(tr)
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
