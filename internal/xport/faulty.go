package xport

import (
	"time"

	"asvm/internal/mesh"
	"asvm/internal/sim"
)

// This file implements deterministic fault injection: FaultyTransport wraps
// any Transport and drops, duplicates, or delays messages according to a
// FaultPlan. All randomness comes from one seeded sim.RNG consumed in engine
// event order, so a run is bit-for-bit reproducible for a fixed (plan, seed)
// and independent of how many experiment cells run in parallel.

// FaultPlan describes the faults to inject: the same probabilities apply to
// every directed link. The zero plan is inactive: a FaultyTransport carrying
// it delegates every Send verbatim without drawing a single random number
// (the provable no-op the determinism tests rely on).
type FaultPlan struct {
	// Drop is the probability a message is silently lost (never reaches
	// the wire; the sender pays no cost — loss is modelled in the network).
	Drop float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// Delay is the probability a message is held back before entering the
	// transport, for a uniform extra latency in [DelayMin, DelayMax].
	Delay              float64
	DelayMin, DelayMax time.Duration
}

// Active reports whether the plan can inject any fault at all.
func (p FaultPlan) Active() bool {
	return p.Drop > 0 || p.Dup > 0 || (p.Delay > 0 && p.DelayMax > 0)
}

// FaultyTransport wraps an inner Transport with FaultPlan-driven fault
// injection. Loopback messages (src == dst) are never faulted: local
// delivery does not cross the wire.
type FaultyTransport struct {
	inner Transport
	eng   *sim.Engine
	plan  FaultPlan
	rng   *sim.RNG

	// Stats.
	Dropped    uint64
	Duplicated uint64
	Delayed    uint64
}

// NewFaulty wraps inner with the given plan. rng must be dedicated to this
// transport (callers fork it from their seed).
func NewFaulty(e *sim.Engine, inner Transport, plan FaultPlan, rng *sim.RNG) *FaultyTransport {
	return &FaultyTransport{inner: inner, eng: e, plan: plan, rng: rng}
}

// Register implements Transport.
func (t *FaultyTransport) Register(n mesh.NodeID, proto ProtoID, h Handler) {
	t.inner.Register(n, proto, h)
}

// Send implements Transport: decide the message's fate, then delegate. Each
// configured fault class draws at most one random number, and none are drawn
// when its rate is zero, so an inactive plan behaves exactly like the bare
// transport.
func (t *FaultyTransport) Send(src, dst mesh.NodeID, proto ProtoID, payloadBytes int, m interface{}) {
	r := &t.plan
	if src == dst || !r.Active() {
		t.inner.Send(src, dst, proto, payloadBytes, m)
		return
	}
	if t.eng.Exploring() {
		t.sendChoose(src, dst, proto, payloadBytes, m)
		return
	}
	if r.Drop > 0 && t.rng.Float64() < r.Drop {
		t.Dropped++
		return
	}
	if r.Dup > 0 && t.rng.Float64() < r.Dup {
		t.Duplicated++
		t.inner.Send(src, dst, proto, payloadBytes, m)
	}
	if r.Delay > 0 && r.DelayMax > 0 && t.rng.Float64() < r.Delay {
		d := r.DelayMin
		if r.DelayMax > r.DelayMin {
			d += time.Duration(t.rng.Float64() * float64(r.DelayMax-r.DelayMin))
		}
		t.Delayed++
		t.eng.Schedule(d, func() {
			t.inner.Send(src, dst, proto, payloadBytes, m)
		})
		return
	}
	t.inner.Send(src, dst, proto, payloadBytes, m)
}

// sendChoose decides a fault-eligible message's fate under schedule
// exploration: instead of random draws, each configured fault class becomes
// one enumerable alternative of a single ChoiceFault point (0 always means
// "deliver normally", so the default schedule is fault-free). The delay
// alternative uses the plan's DelayMax deterministically — no RNG is
// consumed at all while exploring, keeping replay exact.
func (t *FaultyTransport) sendChoose(src, dst mesh.NodeID, proto ProtoID, payloadBytes int, m interface{}) {
	r := &t.plan
	// Fixed class order (drop, dup, delay) so a choice index always maps to
	// the same fate for a given plan.
	n := 1
	dropAt, dupAt, delayAt := -1, -1, -1
	if r.Drop > 0 {
		dropAt = n
		n++
	}
	if r.Dup > 0 {
		dupAt = n
		n++
	}
	if r.Delay > 0 && r.DelayMax > 0 {
		delayAt = n
		n++
	}
	switch k := t.eng.Choose(sim.ChoiceFault, n); k {
	case dropAt:
		t.Dropped++
	case dupAt:
		t.Duplicated++
		t.inner.Send(src, dst, proto, payloadBytes, m)
		t.inner.Send(src, dst, proto, payloadBytes, m)
	case delayAt:
		t.Delayed++
		t.eng.Schedule(r.DelayMax, func() {
			t.inner.Send(src, dst, proto, payloadBytes, m)
		})
	default:
		t.inner.Send(src, dst, proto, payloadBytes, m)
	}
}

var _ Transport = (*FaultyTransport)(nil)
