package xport

import (
	"fmt"
	"sync"
)

// This file implements the protocol-channel registry. Protocol layers
// register a channel name once, at setup, and receive a small dense
// integer ProtoID; every steady-state operation (dispatch, sequence/ack
// bookkeeping, fault accounting) keys on the integer. The name survives
// only for reports and panics — nothing on the message path compares or
// hashes a string.
//
// The registry is global and append-only: IDs are process-wide interned
// names, not per-simulation state, so independent experiment cells running
// in parallel share one table. The mutex makes concurrent registration
// (parallel cells creating pager reply channels) safe; steady-state code
// never takes it because protocols capture their ProtoID at setup time.
// ID values may vary with registration order across runs, but they are
// opaque keys — only Name() ever reaches output.

// ProtoID identifies a registered protocol channel. The zero value is a
// valid channel (the first one registered), so code that needs "no
// channel" must track that separately.
type ProtoID int32

var protoRegistry struct {
	sync.Mutex
	byName map[string]ProtoID
	names  []string
}

// RegisterProto interns a channel name, returning its ProtoID. Calling it
// again with the same name returns the same ID: registration is idempotent
// so package-level protocols and dynamically-created channels (pager reply
// channels) use the same entry points.
func RegisterProto(name string) ProtoID {
	r := &protoRegistry
	r.Lock()
	defer r.Unlock()
	if r.byName == nil {
		r.byName = make(map[string]ProtoID)
	}
	if id, ok := r.byName[name]; ok {
		return id
	}
	id := ProtoID(len(r.names))
	r.names = append(r.names, name)
	r.byName[name] = id
	return id
}

// Name returns the channel name the ID was registered under, for reports
// and diagnostics only.
func (p ProtoID) Name() string {
	r := &protoRegistry
	r.Lock()
	defer r.Unlock()
	if p < 0 || int(p) >= len(r.names) {
		return fmt.Sprintf("proto#%d", int(p))
	}
	return r.names[p]
}

// String implements fmt.Stringer so %v/%s on a ProtoID prints the name.
func (p ProtoID) String() string { return p.Name() }
