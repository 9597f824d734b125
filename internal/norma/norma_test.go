package norma

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

var protoP = xport.RegisterProto("p")

func TestMessageCostBreakdown(t *testing.T) {
	e := sim.NewEngine()
	net := mesh.New(e, 2, mesh.DefaultConfig(2))
	hw := []*node.Node{node.New(e, 0), node.New(e, 1)}
	costs := Costs{
		SendCPU: 100 * time.Microsecond, RecvCPU: 200 * time.Microsecond,
		PortTranslateCPU: 50 * time.Microsecond, PerKBCPU: 10 * time.Microsecond,
		HeaderBytes: 256,
	}
	tr := New(e, net, hw, costs)
	var at sim.Time
	tr.Register(1, protoP, func(src mesh.NodeID, m interface{}) { at = e.Now() })
	tr.Send(0, 1, protoP, 1024, "x")
	e.Run()
	// send: 100+50+10 = 160µs; recv: 200+50+10 = 260µs; plus wire time.
	sw := 160*time.Microsecond + 260*time.Microsecond
	if at < sw {
		t.Fatalf("delivered at %v, must include %v software cost", at, sw)
	}
	if at > sw+time.Millisecond {
		t.Fatalf("delivered at %v; wire should only add microseconds", at)
	}
	if tr.Bytes != 1024+256 {
		t.Fatalf("wire bytes = %d", tr.Bytes)
	}
}

func TestDefaultCostsShape(t *testing.T) {
	c := DefaultCosts()
	if c.SendCPU <= 0 || c.RecvCPU <= 0 || c.PortTranslateCPU <= 0 {
		t.Fatal("non-positive NORMA costs")
	}
	if c.RecvBufferMsgs <= 0 || c.RetransmitDelay <= 0 {
		t.Fatal("flow-control model disabled by default")
	}
}

// TestBurstRetransmitGolden pins NORMA's many-to-one flow control: three
// senders burst five messages each at one receiver whose buffers hold two,
// so arrivals bounce and retransmit, some more than once. Every delivery's
// virtual time and order, and the retransmit count, are the values the
// closure-chain implementation produced; the pooled stepper must reproduce
// them exactly.
func TestBurstRetransmitGolden(t *testing.T) {
	const k = 3
	e := sim.NewEngine()
	net := mesh.New(e, k+1, mesh.DefaultConfig(k+1))
	hw := make([]*node.Node, k+1)
	for i := range hw {
		hw[i] = node.New(e, mesh.NodeID(i))
	}
	costs := DefaultCosts()
	costs.RecvBufferMsgs = 2
	costs.RetransmitDelay = time.Millisecond
	tr := New(e, net, hw, costs)
	var got []string
	tr.Register(0, protoP, func(src mesh.NodeID, m interface{}) {
		got = append(got, fmt.Sprintf("%d/%d@%d", src, m.(int), int64(e.Now())))
	})
	for i := 0; i < 5; i++ {
		for s := 1; s <= k; s++ {
			payload := 0
			if (i+s)%2 == 0 {
				payload = vm.PageSize
			}
			tr.Send(mesh.NodeID(s), 0, protoP, payload, i)
		}
	}
	e.Run()
	want := []string{
		"1/0@1156502", "3/0@1756502", "2/0@2556502", "1/1@3356502", "2/2@4156502",
		"1/3@4956502", "2/4@5756502", "3/1@6556502", "2/3@7156502", "3/3@7956502",
		"1/2@8556502", "3/2@9156502", "1/4@9756502", "3/4@10356502", "2/1@10956502",
	}
	if !slices.Equal(got, want) {
		t.Errorf("deliveries:\n got %q\nwant %q", got, want)
	}
	if tr.Retransmits != 39 || tr.Msgs != 15 || tr.Bytes != 61184 {
		t.Errorf("Retransmits/Msgs/Bytes = %d/%d/%d", tr.Retransmits, tr.Msgs, tr.Bytes)
	}
}

// TestNackGolden pins the dead-port bounce: a send to a node with no
// handler on the channel comes back to the sender's own handler as an
// xport.Nack carrying the original message, at the virtual time and with
// the accounting the closure-chain implementation produced. Two bounces in
// a row check that a recycled delivery starts clean.
func TestNackGolden(t *testing.T) {
	e := sim.NewEngine()
	net := mesh.New(e, 2, mesh.DefaultConfig(2))
	hw := []*node.Node{node.New(e, 0), node.New(e, 1)}
	tr := New(e, net, hw, DefaultCosts())
	var got []string
	tr.Register(0, protoP, func(src mesh.NodeID, m interface{}) {
		nk, ok := m.(xport.Nack)
		if !ok {
			t.Fatalf("handler got %T, want xport.Nack", m)
		}
		if nk.Dst != 1 || nk.Proto != protoP || src != 1 {
			t.Errorf("nack %+v from %v", nk, src)
		}
		got = append(got, fmt.Sprintf("%v@%d", nk.Msg, int64(e.Now())))
		if nk.Msg == "first" {
			tr.Send(0, 1, protoP, 0, "second")
		}
	})
	tr.Send(0, 1, protoP, vm.PageSize, "first")
	e.Run()
	want := []string{"first@2059816", "second@3672820"}
	if !slices.Equal(got, want) {
		t.Errorf("bounces:\n got %q\nwant %q", got, want)
	}
	if tr.Msgs != 4 || tr.Nacks != 2 || tr.Bytes != 9216 || tr.Retransmits != 0 {
		t.Errorf("Msgs/Nacks/Bytes/Retransmits = %d/%d/%d/%d", tr.Msgs, tr.Nacks, tr.Bytes, tr.Retransmits)
	}
}
