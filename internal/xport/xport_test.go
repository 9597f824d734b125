// Package xport_test exercises both transport implementations against the
// shared contract.
package xport_test

import (
	"testing"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/norma"
	"asvm/internal/sim"
	"asvm/internal/sts"
	"asvm/internal/xport"
)

type env struct {
	eng   *sim.Engine
	nodes []*node.Node
	net   *mesh.Network
}

func newEnv(n int) *env {
	e := sim.NewEngine()
	net := mesh.New(e, n, mesh.DefaultConfig(n))
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nodes[i] = node.New(e, mesh.NodeID(i))
	}
	return &env{eng: e, nodes: nodes, net: net}
}

var (
	protoP     = xport.RegisterProto("p")
	protoRT    = xport.RegisterProto("rt")
	protoStorm = xport.RegisterProto("storm")
)

func transports(ev *env) map[string]xport.Transport {
	return map[string]xport.Transport{
		"norma": norma.New(ev.eng, ev.net, ev.nodes, norma.DefaultCosts()),
		"sts":   sts.New(ev.eng, ev.net, ev.nodes, sts.DefaultCosts()),
	}
}

func TestDelivery(t *testing.T) {
	ev := newEnv(4)
	for name, tr := range transports(ev) {
		name, tr := name, tr
		var got interface{}
		var from mesh.NodeID
		tr.Register(2, protoP, func(src mesh.NodeID, m interface{}) {
			got, from = m, src
		})
		tr.Send(0, 2, protoP, 0, "hello-"+name)
		ev.eng.Run()
		if got != "hello-"+name || from != 0 {
			t.Fatalf("%s: got %v from %v", name, got, from)
		}
	}
}

func TestUnregisteredPanics(t *testing.T) {
	ev := newEnv(2)
	for name, tr := range transports(ev) {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: send to unregistered proto did not panic", name)
				}
			}()
			tr.Send(0, 1, xport.RegisterProto("nope"), 0, nil)
		}()
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	ev := newEnv(2)
	for name, tr := range transports(ev) {
		tr.Register(0, protoP, func(mesh.NodeID, interface{}) {})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: duplicate register did not panic", name)
				}
			}()
			tr.Register(0, protoP, func(mesh.NodeID, interface{}) {})
		}()
	}
}

func TestOrderingBetweenSamePair(t *testing.T) {
	ev := newEnv(2)
	for name, tr := range transports(ev) {
		var order []int
		pn := xport.RegisterProto("p" + name)
		tr.Register(1, pn, func(src mesh.NodeID, m interface{}) {
			order = append(order, m.(int))
		})
		for i := 0; i < 5; i++ {
			tr.Send(0, 1, pn, 0, i)
		}
		ev.eng.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("%s: out of order: %v", name, order)
			}
		}
	}
}

func TestNormaSlowerThanSTS(t *testing.T) {
	// One round trip with a page payload over each transport: NORMA must
	// be several times slower — the motivation for the STS (paper §3.1).
	measure := func(mk func(ev *env) xport.Transport) time.Duration {
		ev := newEnv(2)
		tr := mk(ev)
		var done sim.Time
		tr.Register(1, protoRT, func(src mesh.NodeID, m interface{}) {
			tr.Send(1, 0, protoRT, 8192, "reply")
		})
		tr.Register(0, protoRT, func(src mesh.NodeID, m interface{}) {
			done = ev.eng.Now()
		})
		tr.Send(0, 1, protoRT, 0, "req")
		ev.eng.Run()
		return done
	}
	nt := measure(func(ev *env) xport.Transport {
		return norma.New(ev.eng, ev.net, ev.nodes, norma.DefaultCosts())
	})
	st := measure(func(ev *env) xport.Transport {
		return sts.New(ev.eng, ev.net, ev.nodes, sts.DefaultCosts())
	})
	if nt < 3*st {
		t.Fatalf("NORMA (%v) not sufficiently slower than STS (%v)", nt, st)
	}
}

func TestMsgProcContention(t *testing.T) {
	// Many nodes sending to one: the receiver's message processor
	// serializes, so the last delivery lags far behind the first.
	ev := newEnv(16)
	tr := sts.New(ev.eng, ev.net, ev.nodes, sts.DefaultCosts())
	var times []sim.Time
	tr.Register(0, protoP, func(src mesh.NodeID, m interface{}) {
		times = append(times, ev.eng.Now())
	})
	for i := 1; i < 16; i++ {
		tr.Send(mesh.NodeID(i), 0, protoP, 0, i)
	}
	ev.eng.Run()
	if len(times) != 15 {
		t.Fatalf("delivered %d", len(times))
	}
	first, last := times[0], times[len(times)-1]
	if last-first < 13*sts.DefaultCosts().RecvCPU {
		t.Fatalf("no receiver serialization: first %v last %v", first, last)
	}
}

func TestStatsCount(t *testing.T) {
	ev := newEnv(2)
	st := sts.New(ev.eng, ev.net, ev.nodes, sts.DefaultCosts())
	st.Register(1, protoP, func(mesh.NodeID, interface{}) {})
	st.Send(0, 1, protoP, 0, nil)
	st.Send(0, 1, protoP, sts.PageBytes, nil)
	ev.eng.Run()
	if st.Msgs != 2 || st.PageMsgs != 1 {
		t.Fatalf("msgs=%d pageMsgs=%d", st.Msgs, st.PageMsgs)
	}
	if st.Bytes != uint64(2*sts.DefaultCosts().HeaderBytes+sts.PageBytes) {
		t.Fatalf("bytes=%d", st.Bytes)
	}
}

func TestNormaManyToOneRetransmits(t *testing.T) {
	// NORMA's broken flow control (paper §1): a storm of senders overruns
	// the receiver's buffers and messages pay retransmission delays. The
	// STS never does — page contents only move on behalf of a request from
	// their receiver, so buffers are preallocated.
	ev := newEnv(64)
	costs := norma.DefaultCosts()
	costs.RecvBufferMsgs = 8
	nt := norma.New(ev.eng, ev.net, ev.nodes, costs)
	got := 0
	nt.Register(0, protoStorm, func(src mesh.NodeID, m interface{}) { got++ })
	for round := 0; round < 4; round++ {
		for i := 1; i < 64; i++ {
			nt.Send(mesh.NodeID(i), 0, protoStorm, 1024, round)
		}
	}
	ev.eng.Run()
	if got != 4*63 {
		t.Fatalf("delivered %d, want %d (retransmits must not lose messages)", got, 4*63)
	}
	if nt.Retransmits == 0 {
		t.Fatal("no retransmissions under a many-to-one storm")
	}
}
