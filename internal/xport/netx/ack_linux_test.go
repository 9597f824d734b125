package netx

import (
	"encoding/binary"
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"asvm/internal/mesh"
)

// pureAcksOut reads c's TCP_INFO and returns how many segments c has sent
// that carried no data: tcpi_segs_out (byte 136) − tcpi_data_segs_out
// (byte 156). It skips the test on a kernel whose TCP_INFO ends earlier.
func pureAcksOut(t *testing.T, c net.Conn) uint32 {
	t.Helper()
	rc, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var info [256]byte
	size := uint32(len(info))
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&info[0])), uintptr(unsafe.Pointer(&size)), 0)
	}); err != nil || errno != 0 {
		t.Fatalf("getsockopt(TCP_INFO): %v %v", err, errno)
	}
	if size < 160 {
		t.Skipf("TCP_INFO is %d bytes on this kernel; the segment counters need 160", size)
	}
	return binary.NativeEndian.Uint32(info[136:]) - binary.NativeEndian.Uint32(info[156:])
}

// An inbound connection carries data one way, so without pingpong mode its
// socket sends a pure ACK for every frame it reads (1.00 per frame). In
// pingpong mode it ACKs every second segment, and it is back in that mode
// after an idle gap long enough for the kernel's delayed-ACK timer to have
// dropped it.
func TestInboundConnAcksEverySecondFrame(t *testing.T) {
	tb := New(newTestExec(t), Config{Self: 1, Listen: "127.0.0.1:0"})
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	got := make(chan struct{}, 1)
	tb.Register(1, testProto, func(mesh.NodeID, interface{}) { got <- struct{}{} })
	ta := New(newTestExec(t), Config{Self: 0, Peers: map[mesh.NodeID]string{1: tb.Addr().String()}})
	t.Cleanup(ta.Close)

	// send sends n header frames one after another, each once the last
	// has been handled.
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ta.Send(0, 1, testProto, 8, testMsg{N: uint64(i)})
			select {
			case <-got:
			case <-time.After(5 * time.Second):
				t.Fatalf("frame %d not delivered within 5s", i)
			}
		}
	}
	send(1) // dial and hello: the accepted connection is up
	var conn net.Conn
	tb.inbound.Range(func(k, _ interface{}) bool { conn = k.(net.Conn); return false })
	acksPerFrame := func(n int) float64 {
		t.Helper()
		before := pureAcksOut(t, conn)
		send(n)
		return float64(pureAcksOut(t, conn)-before) / float64(n)
	}

	const frames = 400
	r := acksPerFrame(frames)
	t.Logf("%.2f pure ACKs per frame", r)
	if r > 0.6 {
		t.Errorf("%.2f pure ACKs per frame over %d sequential frames, want <= 0.6", r, frames)
	}
	send(1)
	time.Sleep(300 * time.Millisecond)
	r = acksPerFrame(frames)
	t.Logf("after a 300ms idle gap: %.2f pure ACKs per frame", r)
	if r > 0.6 {
		t.Errorf("after a 300ms idle gap: %.2f pure ACKs per frame over %d sequential frames, want <= 0.6", r, frames)
	}
}
