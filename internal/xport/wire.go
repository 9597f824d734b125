package xport

import "sync"

// This file is the wire-codec registry: the bridge between the in-process
// transports (which pass messages as Go values) and a real network
// transport (which must serialize them). A protocol package that wants its
// channel to be carried over real sockets registers a WireCodec under its
// channel *name* — names, not ProtoIDs, are the cross-process identity:
// ProtoID values are process-local interning order, so frames on the wire
// carry the interned name and each process maps it back to its own ID.
//
// Registration is setup-time only (package init or daemon assembly);
// lookup happens on socket reader/writer goroutines, so the table is
// guarded by a mutex like the proto registry itself.

// WireCodec serializes one protocol channel's messages. Implementations
// must be safe for concurrent use (socket readers and the engine loop
// encode/decode on different goroutines).
type WireCodec interface {
	// AppendMsg appends m's binary encoding — including whatever kind tag
	// the codec needs to pick a decoder — to dst and returns the extended
	// slice. It fails on message types the codec does not know.
	AppendMsg(dst []byte, m interface{}) ([]byte, error)

	// DecodeMsg parses one encoded message, returning the exact Go form
	// the protocol's registered Handler expects (pointer kinds stay
	// pointers, value kinds stay values). It must return an error — never
	// panic — on corrupt input, and must reject trailing bytes. It must not
	// retain b: the caller reads the next frame into the same buffer while
	// the returned message is still in use, so whatever the message keeps
	// (page data, reader lists) is copied out.
	DecodeMsg(b []byte) (interface{}, error)
}

var wireCodecs struct {
	sync.Mutex
	byName map[string]WireCodec
}

// RegisterWireCodec installs the codec for a channel name. Registering a
// name twice panics: two codecs for one channel is a wiring bug, not a
// configuration.
func RegisterWireCodec(protoName string, c WireCodec) {
	wireCodecs.Lock()
	defer wireCodecs.Unlock()
	if wireCodecs.byName == nil {
		wireCodecs.byName = make(map[string]WireCodec)
	}
	if _, dup := wireCodecs.byName[protoName]; dup {
		panic("xport: duplicate wire codec for " + protoName)
	}
	wireCodecs.byName[protoName] = c
}

// LookupWireCodec returns the codec registered for a channel name, or nil.
func LookupWireCodec(protoName string) WireCodec {
	wireCodecs.Lock()
	defer wireCodecs.Unlock()
	return wireCodecs.byName[protoName]
}
