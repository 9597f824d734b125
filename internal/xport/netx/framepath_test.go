package netx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// The frame path: who a frame may claim to be from, and what building,
// queueing and reading one costs in garbage.

const pageBytes = 8192

// raceBuild reports a -race test binary, under which sync.Pool drops a
// quarter of what it is given and the allocation bounds below cannot hold.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// rawConn opens a hand-driven connection into tb: the returned write sends
// raw bytes, and closed is closed when tb's ServeConn has given up on the
// connection.
func rawConn(t *testing.T, tb *Transport) (write func([]byte), closed chan struct{}) {
	t.Helper()
	c1, c2 := net.Pipe()
	closed = make(chan struct{})
	go func() {
		tb.ServeConn(c2)
		close(closed)
	}()
	t.Cleanup(func() { c1.Close() })
	return func(b []byte) {
		t.Helper()
		c1.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := c1.Write(b); err != nil {
			t.Fatalf("raw write: %v", err)
		}
	}, closed
}

func msgFrame(t *testing.T, kind byte, src, dst mesh.NodeID, m testMsg) []byte {
	t.Helper()
	f, err := appendMsgFrame(nil, src, dst, "netxtest", 0, testCodec{}, m)
	if err != nil {
		t.Fatal(err)
	}
	f[4] = kind
	return f
}

// A connection speaks for the node its hello named: a message frame with
// any other src is a framing error — counted, connection closed, nothing
// delivered — where it used to be delivered under the forged identity.
func TestMsgWithForeignSrcClosesConn(t *testing.T) {
	_, tb, _, chB := pipePair(t)
	write, closed := rawConn(t, tb)

	write(appendHello(nil, 0))
	write(msgFrame(t, frameMsg, 0, 1, testMsg{N: 1, S: "honest"}))
	if r := waitRecv(t, chB); r.src != 0 || r.m != (testMsg{N: 1, S: "honest"}) {
		t.Fatalf("honest frame delivered as src=%d %+v", r.src, r.m)
	}
	if n := tb.Stats().DecodeErrors; n != 0 {
		t.Fatalf("%d decode errors after an honest frame", n)
	}

	write(msgFrame(t, frameMsg, 5, 1, testMsg{N: 2, S: "forged"}))
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("connection survived a frame whose src is not the hello's node")
	}
	if n := tb.Stats().DecodeErrors; n != 1 {
		t.Errorf("DecodeErrors = %d, want 1", n)
	}
	select {
	case r := <-chB:
		t.Fatalf("forged frame was delivered: src=%d %+v", r.src, r.m)
	case <-time.After(50 * time.Millisecond):
	}
}

// A bounce is the echo of a message this node sent: one whose src is
// anyone else is a framing error too (it used to be dropped silently and
// the connection kept).
func TestBounceOfForeignMsgClosesConn(t *testing.T) {
	_, tb, _, chB := pipePair(t)
	write, closed := rawConn(t, tb)

	write(appendHello(nil, 0))
	// Node 1's own message, bounced by node 0: becomes the local Nack.
	write(msgFrame(t, frameBounce, 1, 0, testMsg{N: 3, S: "ours"}))
	r := waitRecv(t, chB)
	if nack, ok := r.m.(xport.Nack); !ok || r.src != 0 || nack.Msg != (testMsg{N: 3, S: "ours"}) {
		t.Fatalf("bounce of our own message delivered as src=%d %+v, want a Nack from 0", r.src, r.m)
	}

	write(msgFrame(t, frameBounce, 0, 1, testMsg{N: 4, S: "not ours"}))
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("connection survived a bounce of a message this node never sent")
	}
	if n := tb.Stats().DecodeErrors; n != 1 {
		t.Errorf("DecodeErrors = %d, want 1", n)
	}
	select {
	case r := <-chB:
		t.Fatalf("foreign bounce reached the handler: src=%d %+v", r.src, r.m)
	case <-time.After(50 * time.Millisecond):
	}
}

// pingPong registers handlers that bounce m between the two transports,
// every hop sent from the receiving handler; the returned function runs
// the given number of round trips (two frames each) to completion.
func pingPong(t testing.TB, ta, tb *Transport, m testMsg) func(roundTrips int) {
	var left atomic.Int64
	done := make(chan struct{}, 1)
	ta.Register(0, testProto, func(_ mesh.NodeID, got interface{}) {
		if left.Add(-1) > 0 {
			ta.Send(0, 1, testProto, len(m.S), got)
		} else {
			done <- struct{}{}
		}
	})
	tb.Register(1, testProto, func(_ mesh.NodeID, got interface{}) {
		tb.Send(1, 0, testProto, len(m.S), got)
	})
	return func(roundTrips int) {
		left.Store(int64(roundTrips))
		ta.Send(0, 1, testProto, len(m.S), m)
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("ping-pong stalled with %d round trips left", left.Load())
		}
	}
}

// pageCodec carries one page the way the protocol codecs do: decoded into
// a buffer from the page pool, which the handler gives back when the
// message is dead.
type pageCodec struct{}

func (pageCodec) AppendMsg(dst []byte, m interface{}) ([]byte, error) {
	if p, ok := m.(*sentPage); ok {
		return append(dst, p.b...), nil
	}
	return append(dst, m.([]byte)...), nil
}

func (pageCodec) DecodeMsg(b []byte) (interface{}, error) {
	page := vm.GetPageBuf()
	clear(page[copy(page, b):])
	return page, nil
}

var pageProto = xport.RegisterProto("netxtest/page")

func init() { xport.RegisterWireCodec("netxtest/page", pageCodec{}) }

// sentPage is a page message that counts its WireSent calls.
type sentPage struct {
	b    []byte
	sent atomic.Int64
}

func (p *sentPage) WireSent() { p.sent.Add(1) }

// A message that implements WireSent is told once its frame is written —
// exactly once, and by then the frame is on its way — and never when the
// send ends in a Nack instead: the Nack hands the message itself back, with
// whatever it holds intact.
func TestWireSentOncePerWrittenFrameNeverOnNack(t *testing.T) {
	ta, tb := pipeTransports(t)
	got := make(chan []byte, 1)
	tb.Register(1, pageProto, func(_ mesh.NodeID, m interface{}) { got <- m.([]byte) })
	p := &sentPage{b: []byte("delivered")}
	ta.Send(0, 1, pageProto, len(p.b), p)
	select {
	case b := <-got:
		if !bytes.HasPrefix(b, p.b) {
			t.Fatalf("delivered %q", b[:16])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery within 5s")
	}
	if n := p.sent.Load(); n != 1 {
		t.Fatalf("WireSent called %d times for one written frame", n)
	}

	down := New(newTestExec(t), Config{Self: 0, Peers: map[mesh.NodeID]string{1: "nowhere"},
		Dial: func(string) (net.Conn, error) { return nil, errors.New("connection refused") }})
	t.Cleanup(down.Close)
	nacks := make(chan xport.Nack, 1)
	down.Register(0, pageProto, func(_ mesh.NodeID, m interface{}) { nacks <- m.(xport.Nack) })
	q := &sentPage{b: []byte("bounced")}
	down.Send(0, 1, pageProto, len(q.b), q)
	select {
	case nk := <-nacks:
		if nk.Msg != interface{}(q) {
			t.Fatalf("Nack carries %T %v, want the message sent", nk.Msg, nk.Msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no Nack within 5s")
	}
	if n := q.sent.Load(); n != 0 {
		t.Fatalf("WireSent called %d times for a message that was Nacked", n)
	}
}

// In the steady state a received page frame allocates nothing page-sized:
// the outbound frame is built once in a pooled buffer, the inbound one is
// cut out of the connection's read buffer, and the decoder's copy of the
// page comes from the page pool and goes back with the message. What is
// left is small change — the delivery closure and the boxed slice header.
// Built from AppendMsg(nil) + a body + a length-prefixed copy and read into
// a fresh slice, the same frame cost 35.7 KB and 12 objects; with pooled
// frames but a fresh page per decode, 8.3 KB and 4.
func TestPageFrameSteadyStateAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops a quarter of its Puts under -race")
	}
	ta, tb := pipeTransports(t)
	var left atomic.Int64
	done := make(chan struct{}, 1)
	ta.Register(0, pageProto, func(_ mesh.NodeID, got interface{}) {
		page := got.([]byte)
		if left.Add(-1) > 0 {
			ta.Send(0, 1, pageProto, len(page), page) // encoded before Send returns; nothing here Nacks
		} else {
			done <- struct{}{}
		}
		vm.PutPageBuf(page)
	})
	tb.Register(1, pageProto, func(_ mesh.NodeID, got interface{}) {
		page := got.([]byte)
		tb.Send(1, 0, pageProto, len(page), page)
		vm.PutPageBuf(page)
	})
	run := func(roundTrips int) {
		left.Store(int64(roundTrips))
		ta.Send(0, 1, pageProto, pageBytes, bytes.Repeat([]byte{'p'}, pageBytes))
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("ping-pong stalled with %d round trips left", left.Load())
		}
	}
	const roundTrips = 1000
	run(roundTrips) // dial, grow the read buffers, fill the pools

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(roundTrips)
	runtime.ReadMemStats(&after)
	frames := float64(2 * roundTrips)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / frames
	objects := float64(after.Mallocs-before.Mallocs) / frames
	t.Logf("%.0f B and %.2f objects per page frame, send + receive", bytes, objects)
	if bytes > 512 || objects > 5 {
		t.Fatalf("a page frame allocates %.0f B in %.2f objects, want <= 512 B (nothing page-sized) in <= 5", bytes, objects)
	}
}

// Outbound buffers are sized to their frames: a long queue of header
// frames holds header-sized buffers even when page-sized ones are lying in
// the pool, so a burst behind a slow peer costs tens of bytes per frame,
// not a page.
func TestHeaderBurstPinsNoPageBuffers(t *testing.T) {
	const burst = 50_000
	release := make(chan struct{})
	var ta, tb *Transport
	ta = New(newTestExec(t), Config{Self: 0, Peers: map[mesh.NodeID]string{1: "pipe:b"},
		Dial: func(string) (net.Conn, error) {
			<-release // the whole burst queues behind the dial
			c1, c2 := net.Pipe()
			go tb.ServeConn(c2)
			return c1, nil
		}})
	tb = New(newTestExec(t), Config{Self: 1})
	t.Cleanup(func() { ta.Close(); tb.Close() })
	var got atomic.Int64
	done := make(chan struct{})
	tb.Register(1, testProto, func(mesh.NodeID, interface{}) {
		if got.Add(1) == burst {
			close(done)
		}
	})

	// Page-sized buffers in the pool must not be handed to header frames.
	var pages [64]*[]byte
	for i := range pages {
		pages[i] = getFrameBuf(pageBytes + 128)
	}
	for _, b := range pages {
		putFrameBuf(b)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	hdr := testMsg{N: 7, S: "0123456789abcdef"}
	for i := 0; i < burst; i++ {
		ta.Send(0, 1, testProto, 0, hdr)
	}
	queued := heap()
	if per := (float64(queued) - float64(before)) / burst; per > 1024 {
		t.Errorf("%d queued header frames hold %.0f B each, want <= 1024", burst, per)
	} else {
		t.Logf("%.0f B held per queued header frame", per)
	}
	close(release)
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("only %d of %d burst frames delivered", got.Load(), burst)
	}
}

// BenchmarkFramePath is one frame's whole trip — Send, the writer, the
// pipe, the reader, decode, Inject, handler — for a header and for a page
// frame; -benchmem shows what the trip allocates on both sides.
func BenchmarkFramePath(b *testing.B) {
	for _, c := range []struct {
		name string
		m    testMsg
	}{
		{"hdr", testMsg{N: 1, S: "0123456789abcdef"}},
		{"page", testMsg{N: 1, S: strings.Repeat("p", pageBytes)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ta, tb := pipeTransports(b)
			run := pingPong(b, ta, tb, c.m)
			run(16) // dial both ways, warm the buffers
			b.SetBytes(int64(len(c.m.S)))
			b.ReportAllocs()
			b.ResetTimer()
			run((b.N + 1) / 2) // b.N frames
		})
	}
}

// readFrameRef is the reader frameReader replaced: one exact-size read for
// the prefix, one for the body. It defines which frames a byte stream holds.
func readFrameRef(r io.Reader, maxFrame int) ([]byte, error) {
	buf := make([]byte, 4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n > maxFrame {
		return nil, io.ErrShortBuffer
	}
	buf = append(buf, make([]byte, n)...)
	_, err := io.ReadFull(r, buf[4:])
	return buf, err
}

// splitReader returns a stream in chunks of seeded random sizes.
type splitReader struct {
	r   io.Reader
	rng *rand.Rand
}

func (s splitReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1+s.rng.Intn(len(p))]
	}
	return s.r.Read(p)
}

// FuzzFrameReader: whatever the bytes and however the socket chops them up
// — a byte at a time, random splits, all at once — the frame reader yields
// exactly the frames the two-reads-per-frame reader yielded, fails where it
// failed, never panics, and never holds more than MaxFrame + 4 bytes.
func FuzzFrameReader(f *testing.F) {
	hello := appendHello(nil, 3)
	msg, _ := appendMsgFrame(nil, 0, 1, "netxtest", 0, testCodec{}, testMsg{N: 9, S: "fuzz"})
	page, _ := appendMsgFrame(nil, 0, 1, "netxtest", 0, testCodec{}, testMsg{S: strings.Repeat("p", pageBytes)})
	f.Add(slices.Concat(hello, msg, msg), uint16(1000), uint64(1))
	f.Add(slices.Concat(hello, page, msg, page[:100]), uint16(9000), uint64(2))
	f.Add(slices.Concat(msg, []byte{0, 0, 0, 0}, msg), uint16(60), uint64(3)) // an empty frame between two
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3}, uint16(100), uint64(4))    // a prefix far over the limit
	f.Add(slices.Concat(hello, msg[:len(msg)-1]), uint16(100), uint64(5))     // cut short
	f.Fuzz(func(t *testing.T, stream []byte, limit uint16, seed uint64) {
		maxFrame := int(limit)
		var want [][]byte
		for ref := bytes.NewReader(stream); ; {
			frame, err := readFrameRef(ref, maxFrame)
			if err != nil {
				break
			}
			want = append(want, frame)
		}
		for name, r := range map[string]io.Reader{
			"whole":  bytes.NewReader(stream),
			"1-byte": iotest.OneByteReader(bytes.NewReader(stream)),
			"split":  splitReader{bytes.NewReader(stream), rand.New(rand.NewSource(int64(seed)))},
			"eof":    iotest.DataErrReader(bytes.NewReader(stream)),
		} {
			fr := newFrameReader(r, maxFrame)
			for i := 0; ; i++ {
				frame, err := fr.next()
				if cap(fr.buf) > maxFrame+4 {
					t.Fatalf("%s: buffer of %d bytes under a %d-byte frame limit", name, cap(fr.buf), maxFrame)
				}
				if err != nil {
					if i != len(want) {
						t.Fatalf("%s: failed with %v after %d frames, the stream holds %d", name, err, i, len(want))
					}
					break
				}
				if i >= len(want) || !bytes.Equal(frame, want[i]) {
					t.Fatalf("%s: frame %d is %x, want one of %d frames: %x", name, i, frame, len(want), want)
				}
			}
		}
	})
}
