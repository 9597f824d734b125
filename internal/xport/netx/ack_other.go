//go:build !linux

package netx

import "net"

// enterPingpong is Linux-only (TCP_QUICKACK); elsewhere inbound connections
// acknowledge as the kernel defaults.
func enterPingpong(net.Conn) bool { return false }
