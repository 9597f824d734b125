package xport

// MsgKind discriminates message types within one protocol. Kinds are
// protocol-scoped: each protocol package numbers its own messages from 0
// and is the only interpreter of its kinds, so two protocols may reuse the
// same values.
type MsgKind uint8

// Msg is the typed message envelope protocol messages implement. Kind
// lets a handler dispatch through a dense switch (a jump table) instead of
// a linear type-assertion chain, and WireBytes makes payload accounting
// self-describing: the sender passes m.WireBytes() to Send instead of
// recomputing the payload convention at every call site.
type Msg interface {
	// Kind discriminates the message within its protocol.
	Kind() MsgKind
	// WireBytes is the protocol payload this message carries on the wire
	// (page contents ride along; requests and acks are header-only).
	WireBytes() int
}

// Pool is a free list of boxes of one type. A protocol sends its hot kinds
// as *T drawn from a Pool, so neither the box nor its interface conversion
// allocates in steady state; a multi-step operation pooled the same way is
// its own continuation.
//
// The rules: a box is recycled exactly once, by its last consumer — the
// receiver once its handler returns, or the sender when the message comes
// back as a Nack (protocol packages state their own cases). And there is
// one free list per engine: every node one engine runs draws from and
// returns to the same Pool (sim.Engine.Local), because the node that takes
// a box is rarely the node that returns it. Per-node lists would drain at
// the senders and grow without bound at the receivers.
type Pool[T any] struct {
	free []*T

	// Misses counts the boxes Get had to allocate.
	Misses uint64
}

// Get boxes v, reusing a recycled box when one is available.
func (p *Pool[T]) Get(v T) *T {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		*b = v
		return b
	}
	p.Misses++
	b := new(T)
	*b = v
	return b
}

// Put recycles a dead box. The zeroing drops payload references (a page
// snapshot lives on with its receiver; the box must not pin it).
func (p *Pool[T]) Put(b *T) {
	var zero T
	*b = zero
	p.free = append(p.free, b)
}
