// Package xport defines the transport interface shared by the two wire
// protocols of the system: NORMA-IPC (the Mach distribution's heavyweight
// typed-message IPC, used by XMM) and the SVM Transport Service (ASVM's
// dedicated lightweight protocol). Protocol layers address each other by
// (node, proto-channel); each message is an arbitrary Go value plus an
// accounted payload size. Channels are registered names interned to dense
// integer ProtoIDs (see proto.go), so transports dispatch through per-node
// slices with no string hashing on the message path.
package xport

import "asvm/internal/mesh"

// Handler receives a message delivered to a (node, proto) registration.
type Handler func(src mesh.NodeID, m interface{})

// Transport carries protocol messages between nodes, modelling software
// and wire costs. Implementations must deliver messages in a deterministic
// order for fixed inputs.
type Transport interface {
	// Register installs the handler for messages to proto on node n.
	// Registering twice for the same (n, proto) panics.
	Register(n mesh.NodeID, proto ProtoID, h Handler)

	// Send delivers m to (dst, proto). payloadBytes is the protocol
	// payload (page contents etc.); implementations add their own framing
	// overhead. Sending to an unregistered destination bounces: the
	// transport routes a Nack carrying the original message back to the
	// sender's own handler for the same proto, so protocol layers can fall
	// back to another route. Only when the sender itself has no handler —
	// nobody to tell — does the transport panic.
	Send(src, dst mesh.NodeID, proto ProtoID, payloadBytes int, m interface{})
}

// Nack is delivered to the sender's own (src, proto) handler when a message
// addressed to an unregistered (node, proto) destination bounces. The
// handler's src argument is the unreachable node.
type Nack struct {
	// Dst is the destination that had no handler.
	Dst mesh.NodeID
	// Proto is the channel the message was sent on.
	Proto ProtoID
	// Msg is the original message.
	Msg interface{}
}
