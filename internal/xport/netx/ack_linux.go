package netx

import (
	"net"
	"syscall"
)

// enterPingpong puts c's receive side into TCP's interactive (pingpong)
// acknowledgement mode, in which the kernel ACKs every second segment
// instead of every read that drains a pushed one. It reports false when c
// is no TCP socket (net.Pipe) or the option does not take.
func enterPingpong(c net.Conn) bool {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return false
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return false
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_QUICKACK, 0)
	})
	return err == nil && serr == nil
}
