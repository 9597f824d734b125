// Package netx is the real-transport backend: an xport.Transport that
// carries protocol messages between OS processes over TCP sockets (or any
// net.Conn, e.g. net.Pipe in tests) instead of simulated delivery events.
// The protocol stacks — ASVM's state machines, the pager, the forwarding
// fallback chain — run against it unchanged: messages are serialized with
// the codec each protocol registered in the xport wire-codec registry,
// and every transport-level failure (unknown peer, dead peer, remote
// process with no handler) surfaces as the same xport.Nack bounce the
// simulated transports produce, so the fallback logic that survives
// crashed nodes in simulation survives killed processes on a real mesh.
//
// What netx deliberately does NOT provide is the simulator's determinism:
// real sockets deliver in real order. The deterministic twin of every
// experiment stays on the simulated transports; netx is for running the
// same protocol code where the latencies are measured, not modelled.
package netx

import (
	"encoding/binary"
	"fmt"
	"io"

	"asvm/internal/mesh"
	"asvm/internal/xport"
)

// wireVersion is the frame-format generation. The hello exchange rejects
// mismatched peers instead of misparsing them; bump it on any change to
// the frame layout below or to a registered message codec's golden frames.
const wireVersion = 2

// Frame kinds. Every frame on a connection is a u32 little-endian length
// prefix followed by a body starting with one of these bytes.
const (
	frameHello  = 1 // u16 version | u32 sender node
	frameMsg    = 2 // routed protocol message (layout below)
	frameBounce = 3 // a frameMsg echoed back undeliverable: same layout
)

// A msg/bounce body after the kind byte:
//
//	u32 src | u32 dst | u16 proto-name length | proto name bytes |
//	encoded message
//
// The encoded message runs to the end of the frame: the length prefix
// already bounds it, and the codec rejects a truncated message or trailing
// bytes. Proto *names* travel on the wire, never ProtoIDs: IDs are
// process-local interning order, so each process maps the name back
// through its own registry.

// maxFrame bounds an inbound frame body. A page is 8 KB; headers are tens
// of bytes; 1 MiB is generous headroom and a hard stop against a corrupt
// length prefix allocating gigabytes.
const maxFrame = 1 << 20

// wireMsg is a parsed msg/bounce frame body. protoName and encoded alias
// the buffer the frame was read into.
type wireMsg struct {
	kind      byte
	src, dst  mesh.NodeID
	protoName []byte
	encoded   []byte
}

// msgFixed is what a msg frame carries besides the proto name and the
// encoded message: length prefix, kind, src, dst, name length.
const msgFixed = 4 + 1 + 4 + 4 + 2

// appendHello appends a complete hello frame.
func appendHello(dst []byte, self mesh.NodeID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, 7)
	dst = append(dst, frameHello)
	dst = binary.LittleEndian.AppendUint16(dst, wireVersion)
	return binary.LittleEndian.AppendUint32(dst, uint32(int32(self)))
}

// appendMsgFrame appends a complete msg frame — length prefix, header and
// codec's encoding of m — to dst. The codec appends in place and the length
// prefix is patched afterwards, so a frame is built once, in one buffer.
func appendMsgFrame(dst []byte, src, dstNode mesh.NodeID, protoName string, codec xport.WireCodec, m interface{}) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, frameMsg)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(src)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(dstNode)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(protoName)))
	dst = append(dst, protoName...)
	dst, err := codec.AppendMsg(dst, m)
	if err != nil {
		return dst, err
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

// parseMsgBody parses a msg/bounce frame body (kind byte included).
func parseMsgBody(body []byte) (wireMsg, error) {
	var m wireMsg
	if len(body) < 1+4+4+2 {
		return m, fmt.Errorf("netx: short message frame (%d bytes)", len(body))
	}
	m.kind = body[0]
	m.src = mesh.NodeID(int32(binary.LittleEndian.Uint32(body[1:5])))
	m.dst = mesh.NodeID(int32(binary.LittleEndian.Uint32(body[5:9])))
	nameLen := int(binary.LittleEndian.Uint16(body[9:11]))
	rest := body[11:]
	if len(rest) < nameLen {
		return m, fmt.Errorf("netx: truncated message frame")
	}
	m.protoName = rest[:nameLen]
	m.encoded = rest[nameLen:]
	return m, nil
}

// frameReader cuts frames out of a byte stream with one Read per wake-up:
// whatever the socket has goes into one buffer, and next hands out the whole
// frames in it — length prefix included, so a bounce goes back out verbatim.
// A frame aliases the buffer: it is valid, and the caller's to write into,
// until the next call. The buffer grows to the largest frame seen, never past
// maxFrame + 4: the limit is enforced on the prefix, before any allocation.
type frameReader struct {
	r         io.Reader
	buf, rest []byte // rest: the tail of buf read and not yet handed out
	maxFrame  int
}

func newFrameReader(r io.Reader, limit int) *frameReader {
	// 4 KB: a read's worth of header frames, until a page frame grows it.
	return &frameReader{r: r, buf: make([]byte, min(4096, limit+4)), maxFrame: limit}
}

func (fr *frameReader) next() ([]byte, error) {
	for {
		need := 4
		if len(fr.rest) >= 4 {
			n := int(binary.LittleEndian.Uint32(fr.rest))
			if n > fr.maxFrame {
				return nil, fmt.Errorf("netx: frame of %d bytes exceeds limit %d", n, fr.maxFrame)
			}
			if need += n; len(fr.rest) >= need {
				frame := fr.rest[:need:need]
				fr.rest = fr.rest[need:]
				return frame, nil
			}
		}
		// Move the partial frame to the front of a buffer that can hold all
		// of it (the frame handed out last is dead by now), and read on.
		if need > len(fr.buf) {
			fr.buf = make([]byte, need)
		}
		have := copy(fr.buf, fr.rest)
		n, err := fr.r.Read(fr.buf[have:])
		if fr.rest = fr.buf[:have+n]; n == 0 && err != nil {
			return nil, err
		}
	}
}

// readHello reads and validates the hello frame that must open every
// connection, returning the peer's claimed node ID.
func readHello(fr *frameReader) (mesh.NodeID, error) {
	frame, err := fr.next()
	if err != nil {
		return 0, fmt.Errorf("netx: reading hello: %w", err)
	}
	body := frame[4:]
	if len(body) != 7 || body[0] != frameHello {
		return 0, fmt.Errorf("netx: connection did not open with a hello frame")
	}
	if v := binary.LittleEndian.Uint16(body[1:3]); v != wireVersion {
		return 0, fmt.Errorf("netx: peer speaks wire version %d, this build speaks %d", v, wireVersion)
	}
	return mesh.NodeID(int32(binary.LittleEndian.Uint32(body[3:7]))), nil
}
