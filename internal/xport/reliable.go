package xport

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/sim"
)

// This file implements the protocol reliability layer: per-link sequence
// numbers, positive acknowledgements, timeout-driven retransmission with
// exponential backoff, and duplicate suppression on receive. Layered over a
// lossy transport (FaultyTransport) it restores exactly-once delivery, which
// is the property every ASVM request engine assumes: seq-matched protocol
// acks (invalidation, ownership transfer, page offer, pager) panic on
// duplicates, so suppression here must be airtight. The same holds for
// bounces: each frame goes up once, delivered or as one Nack, because the
// layer above recycles a message on whichever of the two it gets.
//
// Wire model: the sequence number rides in the fixed message header (STS
// messages are a 32-byte untyped block with room to spare), so frames add no
// payload bytes. Acks are header-only messages; they are never themselves
// acknowledged — a lost ack causes a retransmit, which the receiver
// suppresses as a duplicate and re-acks.

// ErrPeerDown is the typed verdict of retransmit exhaustion: the observing
// node has retried a frame maxRetries times without an ack and declares the
// destination dead. It is delivered to the observer's registered down-handler
// (OnPeerDown); every in-flight frame toward the dead node then bounces back
// to its sender as a Nack so the protocol above can re-route or abort.
type ErrPeerDown struct {
	Node mesh.NodeID
}

func (e ErrPeerDown) Error() string {
	return fmt.Sprintf("xport: peer node %d is down (retransmit exhaustion)", e.Node)
}

// The retransmit schedule, sized for the simulated Paragon: an STS round
// trip is a few hundred microseconds, so a 4 ms first timeout catches a loss
// quickly without retransmitting under ordinary queueing delay. Attempt k
// waits min(rto<<k, maxRTO). maxRetries bounds retransmissions of one
// message; exceeding it means the observer declares the destination down
// (ErrPeerDown) and every pending frame toward it bounces back as a Nack.
// Deterministic chaos plans with loss rates well below 1 never get close;
// only a genuinely crashed peer exhausts the schedule.
const (
	rto        = 4 * time.Millisecond
	maxRTO     = 64 * time.Millisecond
	maxRetries = 30
)

// relFrame wraps an application message with its per-link sequence number
// and both endpoints' incarnations at send time. A frame stamped with a
// stale destination incarnation (sent before the destination crashed) is
// dropped without acking, so its sender exhausts retransmits and re-routes
// via the Nack path rather than corrupting the reborn node's cold protocol
// state. A frame stamped with a stale source incarnation is a ghost — it
// was in flight when its sender died — and is likewise dropped: without
// this check a ghost re-seeds the receiver's (freshly reset) dedup window
// for the link, and the restarted sender's new stream gets ack'd-and-
// suppressed as duplicates when its sequence numbers collide, silently
// eating live messages.
type relFrame struct {
	Seq    uint64
	Inc    uint32 // destination's incarnation
	SrcInc uint32 // source's incarnation
	Msg    interface{}
}

// relAck acknowledges one received frame. Acks travel on a dedicated
// per-node channel (relAckProto), not the frame's own proto: many protocols
// are asymmetric (a pager client sends on the server's channel but listens
// only on its private reply channel), so the frame proto is not guaranteed
// to have a handler at the sender. Proto identifies the link being acked.
type relAck struct {
	Proto ProtoID
	Seq   uint64
}

// relBounce is a Nack the layer raises itself — a pending frame flushed
// toward a dead peer, or a send fast-failed — rather than one the inner
// transport returns. It travels as loopback traffic so it costs what a
// bounce costs, and it always goes up: its frame is no longer pending.
type relBounce struct{ Nack }

// relAckProto is the reliability layer's own ack channel, registered for a
// node the first time it sends.
var relAckProto = RegisterProto("rel/ack")

// relLink identifies a directed (src, dst, proto) channel — three small
// integers, so the sequence/ack state maps hash and compare without
// touching a string.
type relLink struct {
	src, dst mesh.NodeID
	proto    ProtoID
}

// relObs identifies one node's view of another: src has (or has not)
// declared dst down.
type relObs struct {
	src, dst mesh.NodeID
}

// relPending is one unacknowledged message at the sender.
type relPending struct {
	payloadBytes int
	m            interface{}
	attempts     int
	inc          uint32
}

// relSendState is the sender side of one link.
type relSendState struct {
	nextSeq uint64
	pending map[uint64]*relPending
}

// relRecvState is the receiver side of one link: contig is the highest
// sequence number below which everything has been delivered; ahead holds
// out-of-order arrivals above it (bounded by the sender's in-flight window).
type relRecvState struct {
	contig uint64
	ahead  map[uint64]bool
}

// Reliable implements Transport over an unreliable inner transport.
type Reliable struct {
	inner Transport
	eng   *sim.Engine

	send   map[relLink]*relSendState
	recv   map[relLink]*relRecvState
	ackReg map[mesh.NodeID]bool

	// Crash-stop state. epoch counts a node's incarnations (bumped at each
	// crash); gate drops all inbound delivery at a crashed node; down marks
	// (observer, peer) pairs where the observer has exhausted retransmits,
	// so later sends fast-fail without another 30-retry wait; onDown holds
	// each node's registered peer-down handler.
	epoch  map[mesh.NodeID]uint32
	gate   map[mesh.NodeID]bool
	down   map[relObs]bool
	onDown map[mesh.NodeID]func(ErrPeerDown)

	// Stats.
	Retransmits    uint64
	DupsSuppressed uint64
	AcksSent       uint64
	Nacks          uint64
	PeersDowned    uint64
	StaleDrops     uint64
	// DeliveredFlushed counts pending frames completed silently during a
	// bounce flush because the delivery record shows the destination already
	// received them — only their ack died with the peer.
	DeliveredFlushed uint64
}

// NewReliable layers reliability over inner.
func NewReliable(e *sim.Engine, inner Transport) *Reliable {
	return &Reliable{
		inner: inner, eng: e,
		send:   make(map[relLink]*relSendState),
		recv:   make(map[relLink]*relRecvState),
		ackReg: make(map[mesh.NodeID]bool),
		epoch:  make(map[mesh.NodeID]uint32),
		gate:   make(map[mesh.NodeID]bool),
		down:   make(map[relObs]bool),
		onDown: make(map[mesh.NodeID]func(ErrPeerDown)),
	}
}

// OnPeerDown registers n's peer-down handler: it runs once per peer the
// first time one of n's frames exhausts its retransmit schedule toward that
// peer, before the pending frames bounce back as Nacks.
func (r *Reliable) OnPeerDown(n mesh.NodeID, fn func(ErrPeerDown)) {
	r.onDown[n] = fn
}

// Register implements Transport: the inner registration decodes frames,
// acks them, suppresses duplicates, and hands fresh messages to h.
func (r *Reliable) Register(n mesh.NodeID, proto ProtoID, h Handler) {
	r.inner.Register(n, proto, func(src mesh.NodeID, m interface{}) {
		if r.gate[n] {
			return // n has crashed: inbound delivery stops dead
		}
		switch f := m.(type) {
		case relFrame:
			if f.Inc != r.epoch[n] || f.SrcInc != r.epoch[src] {
				// Stamped for a previous incarnation of an endpoint: either
				// sent before this node crashed (the sender exhausts its
				// retries and re-routes), or a ghost a dead sender left in
				// flight (nobody is waiting; under crash-stop it was lost).
				// No ack either way.
				r.StaleDrops++
				return
			}
			// Always ack — a duplicate means our previous ack was lost.
			// The sender registered its ack channel before sending.
			r.AcksSent++
			r.inner.Send(n, src, relAckProto, 0, relAck{Proto: proto, Seq: f.Seq})
			if r.markSeen(relLink{src, n, proto}, f.Seq) {
				r.DupsSuppressed++
				return
			}
			h(src, f.Msg)
		case Nack:
			// The inner transport bounced one of our frames: the
			// destination has no handler. Every copy of a frame bounces —
			// a duplicate, a retransmit sent before the first bounce came
			// back — but the protocol hears the verdict once: only while
			// the frame is still pending, and passing it up ends that. A
			// bounce of an earlier incarnation's frame is stale too: the
			// sequence space restarted with the node.
			fr, ok := f.Msg.(relFrame)
			if !ok || fr.SrcInc != r.epoch[n] {
				return
			}
			ss := r.send[relLink{n, f.Dst, proto}]
			if ss == nil || ss.pending[fr.Seq] == nil {
				return
			}
			delete(ss.pending, fr.Seq)
			r.Nacks++
			h(src, Nack{Dst: f.Dst, Proto: f.Proto, Msg: fr.Msg})
		case relBounce:
			// One of this layer's own verdicts (a flush or a fast-fail): the
			// frame's pending entry is already gone.
			r.Nacks++
			h(src, f.Nack)
		default:
			// Not one of ours (a transport delivering unwrapped traffic);
			// pass through.
			h(src, m)
		}
	})
}

// Send implements Transport: frame, remember, transmit, arm the timer. A
// crashed sender's frames vanish; a sender that has already declared dst
// down gets an immediate loopback Nack instead of another 30-retry wait.
func (r *Reliable) Send(src, dst mesh.NodeID, proto ProtoID, payloadBytes int, m interface{}) {
	if r.gate[src] {
		return // a crashed node sends nothing
	}
	if r.down[relObs{src, dst}] {
		r.inner.Send(src, src, proto, 0, relBounce{Nack{Dst: dst, Proto: proto, Msg: m}})
		return
	}
	if !r.ackReg[src] {
		r.ackReg[src] = true
		r.inner.Register(src, relAckProto, func(from mesh.NodeID, m interface{}) {
			if r.gate[src] {
				return
			}
			ack, ok := m.(relAck)
			if !ok {
				panic(fmt.Sprintf("xport: non-ack %T on %s", m, relAckProto))
			}
			if ss := r.send[relLink{src, from, ack.Proto}]; ss != nil {
				delete(ss.pending, ack.Seq)
			}
		})
	}
	link := relLink{src, dst, proto}
	ss := r.send[link]
	if ss == nil {
		ss = &relSendState{pending: make(map[uint64]*relPending)}
		r.send[link] = ss
	}
	ss.nextSeq++
	seq := ss.nextSeq
	inc := r.epoch[dst]
	pm := &relPending{payloadBytes: payloadBytes, m: m, inc: inc}
	ss.pending[seq] = pm
	r.inner.Send(src, dst, proto, payloadBytes,
		relFrame{Seq: seq, Inc: inc, SrcInc: r.epoch[src], Msg: m})
	r.armRetry(link, ss, seq, pm)
}

// retryWait returns the backoff before the retransmit that follows
// `attempts` prior transmissions: min(rto << attempts, maxRTO), with shift
// overflow clamped to maxRTO. A golden test pins the schedule — retuning it
// should be a visible diff, not a silent behavior change.
func retryWait(attempts int) time.Duration {
	wait := rto << uint(attempts)
	if wait > maxRTO || wait <= 0 {
		wait = maxRTO
	}
	return wait
}

// armRetry schedules the retransmit check for one in-flight message. The
// engine has no event cancellation: an acked message's timer fires as a
// no-op (the pending entry is gone).
func (r *Reliable) armRetry(link relLink, ss *relSendState, seq uint64, pm *relPending) {
	r.eng.Schedule(retryWait(pm.attempts), func() {
		if ss.pending[seq] != pm {
			return // acked (or nacked) in the meantime
		}
		pm.attempts++
		if pm.attempts > maxRetries {
			r.peerDown(link.src, link.dst)
			return
		}
		r.Retransmits++
		// A live sender's own incarnation never changes (its pendings are
		// cleared if it crashes), so stamping at retransmit time matches the
		// original send.
		r.inner.Send(link.src, link.dst, link.proto, pm.payloadBytes,
			relFrame{Seq: seq, Inc: pm.inc, SrcInc: r.epoch[link.src], Msg: pm.m})
		r.armRetry(link, ss, seq, pm)
	})
}

// peerDown is retransmit exhaustion: src declares dst down. The first
// declaration runs src's down-handler (so the protocol layer can scrub
// caches before the fallout arrives); then every pending src→dst frame —
// across all protocols, in deterministic (proto, seq) order — bounces back
// to src as a loopback Nack, exactly as if the inner transport had refused
// it, reusing the protocol's established re-route path.
func (r *Reliable) peerDown(src, dst mesh.NodeID) {
	obs := relObs{src, dst}
	if !r.down[obs] {
		r.down[obs] = true
		r.PeersDowned++
		if h := r.onDown[src]; h != nil {
			h(ErrPeerDown{Node: dst})
		}
	}
	r.MarkPeerDown(src, dst)
}

// MarkPeerDown lets the machine layer declare, at observer src, that dst is
// dead without waiting for retransmit exhaustion (a planned crash is known
// to the failure model immediately). Later src→dst sends fast-fail and the
// in-flight frames bounce now. Unlike retransmit exhaustion the caller
// drives the protocol scrub itself, so no down-handler fires and the
// PeersDowned stat (exhaustion verdicts) does not count it.
func (r *Reliable) MarkPeerDown(src, dst mesh.NodeID) {
	r.down[relObs{src, dst}] = true
	r.bounceAll(func(link relLink, _ *relPending) bool { return link.src == src && link.dst == dst })
}

// pendingFrame is one unacknowledged frame as the flush paths see it.
type pendingFrame struct {
	link relLink
	seq  uint64
	pm   *relPending
	// delivered: the destination has the frame, only its ack is missing.
	delivered bool
}

// pendingFrames returns the pending frames keep selects, in (src, dst,
// proto, seq) order: what the flush paths do with them must never depend
// on map order.
func (r *Reliable) pendingFrames(keep func(relLink, *relPending) bool) []pendingFrame {
	var out []pendingFrame
	for link, ss := range r.send {
		for seq, pm := range ss.pending {
			if keep(link, pm) {
				out = append(out, pendingFrame{link, seq, pm, r.delivered(link, seq)})
			}
		}
	}
	slices.SortFunc(out, func(a, b pendingFrame) int {
		return cmp.Or(cmp.Compare(a.link.src, b.link.src), cmp.Compare(a.link.dst, b.link.dst),
			cmp.Compare(a.link.proto, b.link.proto), cmp.Compare(a.seq, b.seq))
	})
	return out
}

// bounceAll flushes the pending frames keep selects as loopback Nacks to
// their senders.
//
// A Nack asserts "this message never arrived", so a frame the destination
// demonstrably delivered (it is in the link's receive record; only its ack
// is missing) must NOT bounce — the receiver acted on it, and replaying
// its content at the sender double-applies authority (a delivered
// ownership grant would be both counted lost with the crashed owner and
// "reclaimed" from the bounce). Such frames complete silently: acked by
// the delivery record.
func (r *Reliable) bounceAll(keep func(relLink, *relPending) bool) {
	for _, f := range r.pendingFrames(keep) {
		delete(r.send[f.link].pending, f.seq)
		if f.delivered {
			r.DeliveredFlushed++
			continue
		}
		r.inner.Send(f.link.src, f.link.src, f.link.proto, 0,
			relBounce{Nack{Dst: f.link.dst, Proto: f.link.proto, Msg: f.pm.m}})
	}
}

// AbandonedSend is one frame a crashing node had sent but that was never
// delivered: its in-flight copies will be stale-dropped at the destination
// (source-incarnation check) and its retransmit schedule dies with the
// node, so the message is lost with certainty. The machine layer collects
// these before NodeCrashed wipes the send state and hands them to the
// failure model, so authority that died in transit (an ownership grant the
// sender already relinquished) is declared lost rather than leaked.
type AbandonedSend struct {
	Dst mesh.NodeID
	Msg interface{}
}

// AbandonedSends returns n's pending outbound frames that were never
// delivered, in deterministic (dst, proto, seq) order. A frame the
// destination has already received (only its ack is outstanding) is NOT
// abandoned — the receiver acted on it — and is excluded. Must be called
// before NodeCrashed(n).
func (r *Reliable) AbandonedSends(n mesh.NodeID) []AbandonedSend {
	var out []AbandonedSend
	for _, f := range r.pendingFrames(func(link relLink, _ *relPending) bool { return link.src == n }) {
		if !f.delivered {
			out = append(out, AbandonedSend{Dst: f.link.dst, Msg: f.pm.m})
		}
	}
	return out
}

// NodeCrashed drops node n dead: its incarnation advances (pre-crash frames
// toward it become stale), inbound delivery gates shut, its own unacked
// sends are abandoned (the retry timers find empty pending maps and expire
// as no-ops — a crashed node's timers are cancelled), and every receiver's
// memory of n's sequence space is wiped so a restarted n starts clean at
// sequence 1. The links where n was the RECEIVER are kept frozen (inbound
// is gated, so they can't change): they are the failure detector's record
// of which survivor frames n delivered before dying, which bounceAll needs
// to avoid Nacking delivered frames. A restarted n gets them wiped in
// PeerRestarted.
func (r *Reliable) NodeCrashed(n mesh.NodeID) {
	r.epoch[n]++
	r.gate[n] = true
	for link, ss := range r.send {
		if link.src == n {
			clear(ss.pending)
			delete(r.send, link)
		}
	}
	for link := range r.recv {
		if link.src == n {
			delete(r.recv, link)
		}
	}
}

// PeerRestarted reopens a crashed node: the inbound gate lifts, down marks
// involving n are forgotten (both directions — n rejoins cold and its peers
// may talk to it again), and frames stamped for the dead incarnation bounce
// back to their senders immediately rather than grinding through 30 stale
// retransmits each. Frames sent during the downtime already carry the new
// incarnation and deliver via their normal retransmit schedule.
func (r *Reliable) PeerRestarted(n mesh.NodeID) {
	delete(r.gate, n)
	for obs := range r.down {
		if obs.src == n || obs.dst == n {
			delete(r.down, obs)
		}
	}
	cur := r.epoch[n]
	r.bounceAll(func(link relLink, pm *relPending) bool { return link.dst == n && pm.inc != cur })
	// The reborn node's receive memory starts cold; the crash-time delivery
	// record (kept by NodeCrashed for bounceAll) has served its purpose.
	for link := range r.recv {
		if link.dst == n {
			delete(r.recv, link)
		}
	}
}

// delivered reports whether link's receiver has delivered seq.
func (r *Reliable) delivered(link relLink, seq uint64) bool {
	rs := r.recv[link]
	return rs != nil && (seq <= rs.contig || rs.ahead[seq])
}

// markSeen records a received sequence number and reports whether it was
// already delivered. Memory is bounded: contiguously-delivered history
// collapses into the low-water mark.
func (r *Reliable) markSeen(link relLink, seq uint64) (dup bool) {
	if r.delivered(link, seq) {
		return true
	}
	rs := r.recv[link]
	if rs == nil {
		rs = &relRecvState{ahead: make(map[uint64]bool)}
		r.recv[link] = rs
	}
	if seq == rs.contig+1 {
		rs.contig++
		for rs.ahead[rs.contig+1] {
			rs.contig++
			delete(rs.ahead, rs.contig)
		}
	} else {
		rs.ahead[seq] = true
	}
	return false
}

var _ Transport = (*Reliable)(nil)
