package sts

import (
	"testing"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/xport"
)

var protoS = xport.RegisterProto("s")

func TestPagePrepChargedOnlyWithPayload(t *testing.T) {
	e := sim.NewEngine()
	net := mesh.New(e, 2, mesh.DefaultConfig(2))
	hw := []*node.Node{node.New(e, 0), node.New(e, 1)}
	costs := DefaultCosts()
	costs.SendCPU, costs.RecvCPU, costs.PagePrep = 10*time.Microsecond, 20*time.Microsecond, 100*time.Microsecond
	tr := New(e, net, hw, costs)
	var small, big sim.Time
	tr.Register(1, protoS, func(mesh.NodeID, interface{}) { small = e.Now() })
	tr.Send(0, 1, protoS, 0, nil)
	e.Run()
	e2 := sim.NewEngine()
	net2 := mesh.New(e2, 2, mesh.DefaultConfig(2))
	hw2 := []*node.Node{node.New(e2, 0), node.New(e2, 1)}
	tr2 := New(e2, net2, hw2, costs)
	tr2.Register(1, protoS, func(mesh.NodeID, interface{}) { big = e2.Now() })
	tr2.Send(0, 1, protoS, PageBytes, nil)
	e2.Run()
	// The page message pays 2x PagePrep plus serialization of 8 KB.
	if big-small < 200*time.Microsecond {
		t.Fatalf("page message (%v) not dearer than control message (%v)", big, small)
	}
	if tr.PageMsgs != 0 || tr2.PageMsgs != 1 {
		t.Fatalf("page accounting wrong: %d/%d", tr.PageMsgs, tr2.PageMsgs)
	}
}

func TestHeaderIsFixed32Bytes(t *testing.T) {
	if h := DefaultCosts().HeaderBytes; h != 32 {
		t.Fatalf("STS header = %d, the paper specifies 32", h)
	}
}
