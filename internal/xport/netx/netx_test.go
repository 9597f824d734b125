package netx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/xport"
)

// The tests run netx against its own tiny protocol + codec, so they need
// nothing from the real protocol stacks.

var testProto = xport.RegisterProto("netxtest")

type testMsg struct {
	N uint64
	S string
}

type testCodec struct{}

func (testCodec) AppendMsg(dst []byte, m interface{}) ([]byte, error) {
	v, ok := m.(testMsg)
	if !ok {
		return dst, fmt.Errorf("testCodec: cannot encode %T", m)
	}
	dst = binary.LittleEndian.AppendUint64(dst, v.N)
	return append(dst, v.S...), nil
}

func (testCodec) DecodeMsg(b []byte) (interface{}, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("testCodec: short message")
	}
	return testMsg{N: binary.LittleEndian.Uint64(b[:8]), S: string(b[8:])}, nil
}

func init() { xport.RegisterWireCodec("netxtest", testCodec{}) }

// testExec serializes injected closures on one goroutine, standing in for
// the rt.Loop the daemon uses.
type testExec struct{ ch chan func() }

func newTestExec(t testing.TB) *testExec {
	e := &testExec{ch: make(chan func(), 4096)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for fn := range e.ch {
			fn()
		}
	}()
	t.Cleanup(func() { close(e.ch); <-done })
	return e
}

func (e *testExec) Inject(fn func()) { e.ch <- fn }
func (e *testExec) Do(fn func())     { e.ch <- fn }

type recvd struct {
	src mesh.NodeID
	m   interface{}
}

// pipeTransports wires two transports (nodes 0 and 1) together with
// net.Pipe in both directions: each side's Dial hands the opposite end to
// the other transport's ServeConn, exactly as a TCP accept loop would.
// Nothing is registered yet.
func pipeTransports(t testing.TB) (*Transport, *Transport) {
	t.Helper()
	var ta, tb *Transport
	dialInto := func(target **Transport) func(string) (net.Conn, error) {
		return func(string) (net.Conn, error) {
			c1, c2 := net.Pipe()
			tp := *target
			go tp.ServeConn(c2)
			return c1, nil
		}
	}
	ta = New(newTestExec(t), Config{Self: 0, Peers: map[mesh.NodeID]string{1: "pipe:b"}, Dial: dialInto(&tb)})
	tb = New(newTestExec(t), Config{Self: 1, Peers: map[mesh.NodeID]string{0: "pipe:a"}, Dial: dialInto(&ta)})
	t.Cleanup(func() { ta.Close(); tb.Close() })
	return ta, tb
}

// pipePair is pipeTransports with a channel-fed handler on each side.
func pipePair(t *testing.T) (*Transport, *Transport, chan recvd, chan recvd) {
	t.Helper()
	ta, tb := pipeTransports(t)
	chA := make(chan recvd, 64)
	chB := make(chan recvd, 64)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })
	tb.Register(1, testProto, func(src mesh.NodeID, m interface{}) { chB <- recvd{src, m} })
	return ta, tb, chA, chB
}

func waitRecv(t *testing.T, ch chan recvd) recvd {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery within 5s")
		return recvd{}
	}
}

// A message sent to a registered remote handler arrives decoded, with the
// true source.
func TestPipeDelivery(t *testing.T) {
	ta, tb, chA, chB := pipePair(t)

	ta.Send(0, 1, testProto, 128, testMsg{N: 42, S: "hello"})
	r := waitRecv(t, chB)
	if r.src != 0 {
		t.Errorf("delivered src = %d, want 0", r.src)
	}
	if got, want := r.m, (testMsg{N: 42, S: "hello"}); got != want {
		t.Errorf("delivered %+v, want %+v", got, want)
	}

	// And the reverse direction, over the other pipe.
	back := testMsg{N: 7, S: "ack"}
	tb.Send(1, 0, testProto, 0, back)
	r = waitRecv(t, chA)
	if r.src != 1 || r.m != back {
		t.Errorf("reverse delivery got src=%d m=%+v", r.src, r.m)
	}
}

// A message to a node whose process has no handler for the channel comes
// back as a Nack on the sender's own handler, with src = the unreachable
// node — the exact contract the forwarding fallback chain relies on.
func TestRemoteBounceBecomesNack(t *testing.T) {
	ta, tb := pipeTransports(t)

	chA := make(chan recvd, 16)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })
	// tb registers nothing: node 1 cannot accept testProto traffic.

	sent := testMsg{N: 9, S: "undeliverable"}
	ta.Send(0, 1, testProto, 0, sent)
	r := waitRecv(t, chA)
	if r.src != 1 {
		t.Errorf("Nack delivered with src=%d, want the unreachable node 1", r.src)
	}
	nack, ok := r.m.(xport.Nack)
	if !ok {
		t.Fatalf("expected xport.Nack, got %T", r.m)
	}
	if nack.Dst != 1 || nack.Proto != testProto {
		t.Errorf("Nack{Dst:%d Proto:%v}, want {1 %v}", nack.Dst, nack.Proto, testProto)
	}
	if nack.Msg != sent {
		t.Errorf("Nack carries %+v, want the original %+v", nack.Msg, sent)
	}
	if s := ta.Stats(); s.BouncesRecv == 0 {
		t.Error("sender stats show no received bounce")
	}
	if s := tb.Stats(); s.BouncesSent == 0 {
		t.Error("receiver stats show no sent bounce")
	}
}

// A peer that cannot be dialed at all produces the same Nack — this is
// the dead-process case the fallback chain must survive.
func TestDeadPeerBecomesNack(t *testing.T) {
	ta := New(newTestExec(t), Config{
		Self:  0,
		Peers: map[mesh.NodeID]string{1: "dead"},
		Dial: func(string) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
	})
	t.Cleanup(ta.Close)
	chA := make(chan recvd, 16)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })

	ta.Send(0, 1, testProto, 0, testMsg{N: 1})
	r := waitRecv(t, chA)
	nack, ok := r.m.(xport.Nack)
	if !ok || nack.Dst != 1 {
		t.Fatalf("expected Nack{Dst:1}, got %T %+v", r.m, r.m)
	}
	if s := ta.Stats(); s.DialFailures == 0 || s.LocalNacks == 0 {
		t.Errorf("stats %+v missing the dial failure / local nack", s)
	}
}

// A destination not in the peer map bounces immediately.
func TestUnknownPeerBecomesNack(t *testing.T) {
	ta := New(newTestExec(t), Config{Self: 0, Peers: nil})
	t.Cleanup(ta.Close)
	chA := make(chan recvd, 16)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })

	ta.Send(0, 5, testProto, 0, testMsg{N: 2})
	r := waitRecv(t, chA)
	if nack, ok := r.m.(xport.Nack); !ok || nack.Dst != 5 {
		t.Fatalf("expected Nack{Dst:5}, got %T %+v", r.m, r.m)
	}
}

// Self-sends bypass the codec entirely and preserve message identity.
func TestSelfDelivery(t *testing.T) {
	ta := New(newTestExec(t), Config{Self: 3})
	t.Cleanup(ta.Close)
	chA := make(chan recvd, 16)
	ta.Register(3, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })

	sent := &testMsg{N: 5} // pointer: identity must survive, not just value
	ta.Send(3, 3, testProto, 0, sent)
	r := waitRecv(t, chA)
	if r.src != 3 {
		t.Errorf("self delivery src=%d, want 3", r.src)
	}
	if r.m != interface{}(sent) {
		t.Errorf("self delivery did not preserve message identity")
	}
}

// Full TCP: two transports on localhost ephemeral ports, traffic both
// ways, stats moving, clean close. This is the socket path asvmd runs.
func TestTCPLoopback(t *testing.T) {
	mkNode := func(self mesh.NodeID) (*Transport, chan recvd) {
		tr := New(newTestExec(t), Config{Self: self, Listen: "127.0.0.1:0"})
		if err := tr.Start(); err != nil {
			t.Fatalf("node %d listen: %v", self, err)
		}
		t.Cleanup(tr.Close)
		ch := make(chan recvd, 64)
		tr.Register(self, testProto, func(src mesh.NodeID, m interface{}) { ch <- recvd{src, m} })
		return tr, ch
	}
	ta, chA := mkNode(0)
	tb, chB := mkNode(1)
	// Peer addresses are only known after both listeners are up.
	ta.AddPeer(1, tb.Addr().String())
	tb.AddPeer(0, ta.Addr().String())

	const n = 50
	for i := 0; i < n; i++ {
		ta.Send(0, 1, testProto, 64, testMsg{N: uint64(i), S: "ping"})
		tb.Send(1, 0, testProto, 64, testMsg{N: uint64(i), S: "pong"})
	}
	seenB := make(map[uint64]bool)
	seenA := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		rb := waitRecv(t, chB)
		seenB[rb.m.(testMsg).N] = true
		ra := waitRecv(t, chA)
		seenA[ra.m.(testMsg).N] = true
	}
	if len(seenA) != n || len(seenB) != n {
		t.Fatalf("delivered %d/%d and %d/%d distinct messages", len(seenA), n, len(seenB), n)
	}

	deadline := time.Now().Add(5 * time.Second)
	for ta.Outstanding() != 0 || tb.Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outstanding never drained: a=%d b=%d", ta.Outstanding(), tb.Outstanding())
		}
		time.Sleep(time.Millisecond)
	}
	if s := ta.Stats(); s.FramesSent < n || s.BytesSent == 0 {
		t.Errorf("sender stats did not move: %+v", s)
	}
}

// Closing a transport bounces anything still queued instead of dropping
// it silently.
func TestCloseBouncesQueued(t *testing.T) {
	dialStarted := make(chan struct{})
	release := make(chan struct{})
	ta := New(newTestExec(t), Config{
		Self:  0,
		Peers: map[mesh.NodeID]string{1: "slow"},
		Dial: func(string) (net.Conn, error) {
			close(dialStarted)
			<-release
			return nil, errors.New("gone")
		},
	})
	chA := make(chan recvd, 16)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })

	ta.Send(0, 1, testProto, 0, testMsg{N: 1})
	<-dialStarted
	ta.Send(0, 1, testProto, 0, testMsg{N: 2}) // queued behind the stuck dial
	close(release)
	ta.Close()
	// Both messages must come back as Nacks (dial failed; then shutdown).
	for i := 0; i < 2; i++ {
		r := waitRecv(t, chA)
		if _, ok := r.m.(xport.Nack); !ok {
			t.Fatalf("message %d: expected Nack, got %T", i, r.m)
		}
	}
}
