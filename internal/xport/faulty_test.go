package xport

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/sim"
)

// fakeXport is an in-memory Transport for exercising the wrapper layers:
// delivery is a zero-delay engine event, sends are recorded, and an optional
// drop hook simulates loss below the layer under test. Unregistered
// destinations bounce per the Transport contract.
type fakeXport struct {
	eng      *sim.Engine
	handlers map[string]Handler
	drop     func(src, dst mesh.NodeID, proto ProtoID, m interface{}) bool

	log []fakeSend
}

type fakeSend struct {
	src, dst mesh.NodeID
	proto    ProtoID
	payload  int
	m        interface{}
}

// protoP is the channel most wrapper-layer tests exercise.
var protoP = RegisterProto("p")

func newFake(e *sim.Engine) *fakeXport {
	return &fakeXport{eng: e, handlers: make(map[string]Handler)}
}

func fkey(n mesh.NodeID, proto ProtoID) string { return fmt.Sprintf("%d/%d", n, proto) }

func (f *fakeXport) Register(n mesh.NodeID, proto ProtoID, h Handler) {
	k := fkey(n, proto)
	if _, dup := f.handlers[k]; dup {
		panic("fake: duplicate registration " + k)
	}
	f.handlers[k] = h
}

func (f *fakeXport) Send(src, dst mesh.NodeID, proto ProtoID, payloadBytes int, m interface{}) {
	f.log = append(f.log, fakeSend{src, dst, proto, payloadBytes, m})
	if f.drop != nil && f.drop(src, dst, proto, m) {
		return
	}
	h, ok := f.handlers[fkey(dst, proto)]
	if !ok {
		back, ok := f.handlers[fkey(src, proto)]
		if !ok {
			panic("fake: no handler and no bounce for " + fkey(dst, proto))
		}
		f.eng.Schedule(0, func() { back(dst, Nack{Dst: dst, Proto: proto, Msg: m}) })
		return
	}
	f.eng.Schedule(0, func() { h(src, m) })
}

func TestFaultyZeroPlanIsNoOp(t *testing.T) {
	// The zero plan must delegate verbatim without drawing a single random
	// number — the property the determinism suite relies on.
	e := sim.NewEngine()
	fk := newFake(e)
	rng := sim.NewRNG(7)
	ft := NewFaulty(e, fk, FaultPlan{}, rng)
	ft.Register(1, protoP, func(mesh.NodeID, interface{}) {})
	for i := 0; i < 50; i++ {
		ft.Send(0, 1, protoP, i, i)
	}
	e.Run()
	if len(fk.log) != 50 {
		t.Fatalf("inner saw %d sends, want 50", len(fk.log))
	}
	for i, s := range fk.log {
		if s.m != i || s.payload != i {
			t.Fatalf("send %d altered: %+v", i, s)
		}
	}
	if got, want := rng.Uint64(), sim.NewRNG(7).Uint64(); got != want {
		t.Fatalf("zero plan consumed randomness: next draw %d, want %d", got, want)
	}
	if ft.Dropped != 0 || ft.Duplicated != 0 || ft.Delayed != 0 {
		t.Fatalf("zero plan injected faults: %d/%d/%d", ft.Dropped, ft.Duplicated, ft.Delayed)
	}
}

func TestFaultyDropIsDeterministic(t *testing.T) {
	run := func(seed uint64) ([]fakeSend, uint64) {
		e := sim.NewEngine()
		fk := newFake(e)
		ft := NewFaulty(e, fk, FaultPlan{Drop: 0.5}, sim.NewRNG(seed))
		ft.Register(1, protoP, func(mesh.NodeID, interface{}) {})
		for i := 0; i < 100; i++ {
			ft.Send(0, 1, protoP, 0, i)
		}
		e.Run()
		return fk.log, ft.Dropped
	}
	logA, dropA := run(3)
	logB, dropB := run(3)
	if dropA == 0 || dropA == 100 {
		t.Fatalf("degenerate drop count %d at rate 0.5", dropA)
	}
	if dropA != dropB || !reflect.DeepEqual(logA, logB) {
		t.Fatalf("same seed diverged: %d vs %d drops", dropA, dropB)
	}
	if logC, _ := run(4); reflect.DeepEqual(logA, logC) {
		t.Fatal("different seeds produced identical fault patterns")
	}
}

func TestFaultyDupAndDelay(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	ft := NewFaulty(e, fk, FaultPlan{Dup: 1}, sim.NewRNG(1))
	ft.Register(1, protoP, func(mesh.NodeID, interface{}) {})
	ft.Send(0, 1, protoP, 0, "m")
	e.Run()
	if len(fk.log) != 2 || ft.Duplicated != 1 {
		t.Fatalf("dup rate 1: inner saw %d sends, %d duplicated", len(fk.log), ft.Duplicated)
	}

	e2 := sim.NewEngine()
	fk2 := newFake(e2)
	const lag = 5 * time.Millisecond
	ft2 := NewFaulty(e2, fk2, FaultPlan{Delay: 1, DelayMin: lag, DelayMax: lag}, sim.NewRNG(1))
	var at sim.Time
	ft2.Register(1, protoP, func(mesh.NodeID, interface{}) { at = e2.Now() })
	ft2.Send(0, 1, protoP, 0, "m")
	e2.Run()
	if ft2.Delayed != 1 || at != sim.Time(lag) {
		t.Fatalf("delay rate 1: delivered at %v (delayed=%d), want %v", at, ft2.Delayed, lag)
	}
}

func TestFaultyLoopbackExempt(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	ft := NewFaulty(e, fk, FaultPlan{Drop: 1}, sim.NewRNG(1))
	got := 0
	ft.Register(0, protoP, func(mesh.NodeID, interface{}) { got++ })
	ft.Send(0, 0, protoP, 0, "local")
	e.Run()
	if got != 1 || ft.Dropped != 0 {
		t.Fatalf("loopback faulted: delivered=%d dropped=%d", got, ft.Dropped)
	}
}
