package xport

import (
	"testing"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/sim"
)

// TestReliableRetransmitsLostFrames drops the first transmission of every
// data frame; every message must still arrive exactly once.
func TestReliableRetransmitsLostFrames(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	tried := map[uint64]bool{}
	fk.drop = func(src, dst mesh.NodeID, proto ProtoID, m interface{}) bool {
		f, ok := m.(relFrame)
		if !ok || tried[f.Seq] {
			return false
		}
		tried[f.Seq] = true
		return true
	}
	r := NewReliable(e, fk)
	var got []int
	r.Register(1, protoP, func(src mesh.NodeID, m interface{}) { got = append(got, m.(int)) })
	const n = 5
	for i := 0; i < n; i++ {
		r.Send(0, 1, protoP, 0, i)
	}
	e.Run()
	if len(got) != n {
		t.Fatalf("delivered %d messages, want %d: %v", len(got), n, got)
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("message %d delivered twice: %v", v, got)
		}
		seen[v] = true
	}
	if r.Retransmits != n {
		t.Fatalf("retransmits=%d, want %d", r.Retransmits, n)
	}
}

// TestReliableSuppressesDuplicates drops the first ack of every frame: the
// sender retransmits, the receiver must suppress the duplicate and re-ack.
func TestReliableSuppressesDuplicates(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	acked := map[uint64]bool{}
	fk.drop = func(src, dst mesh.NodeID, proto ProtoID, m interface{}) bool {
		a, ok := m.(relAck)
		if !ok || acked[a.Seq] {
			return false
		}
		acked[a.Seq] = true
		return true
	}
	r := NewReliable(e, fk)
	got := 0
	r.Register(1, protoP, func(mesh.NodeID, interface{}) { got++ })
	const n = 4
	for i := 0; i < n; i++ {
		r.Send(0, 1, protoP, 0, i)
	}
	e.Run()
	if got != n {
		t.Fatalf("handler ran %d times, want %d", got, n)
	}
	if r.DupsSuppressed != n {
		t.Fatalf("dups suppressed=%d, want %d", r.DupsSuppressed, n)
	}
	if r.AcksSent != 2*n {
		t.Fatalf("acks sent=%d, want %d (one lost + one re-ack per frame)", r.AcksSent, 2*n)
	}
}

// TestReliableGivesUpLoudly: a link that never delivers must panic after
// maxRetries rather than retry forever.
func TestReliableGivesUpLoudly(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	fk.drop = func(src, dst mesh.NodeID, proto ProtoID, m interface{}) bool {
		_, isFrame := m.(relFrame)
		return isFrame // black-hole all data frames, let acks through
	}
	r := NewReliable(e, fk)
	r.Register(1, protoP, func(mesh.NodeID, interface{}) {})
	r.Send(0, 1, protoP, 0, "doomed")
	defer func() {
		if recover() == nil {
			t.Fatal("dead link did not panic after maxRetries")
		}
		if want := uint64(30); r.Retransmits != want {
			t.Fatalf("retransmits=%d, want %d", r.Retransmits, want)
		}
	}()
	e.Run()
}

// TestReliableNackCancelsAndPassesUp: a bounce off an unregistered node must
// cancel the retransmit timer and surface the unwrapped Nack to the sender.
func TestReliableNackCancelsAndPassesUp(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	r := NewReliable(e, fk)
	var nk *Nack
	r.Register(0, protoP, func(src mesh.NodeID, m interface{}) {
		n := m.(Nack)
		nk = &n
	})
	r.Send(0, 9, protoP, 0, "stray") // node 9 never registered
	e.Run()                          // would panic via maxRetries if the pending entry survived
	if nk == nil {
		t.Fatal("no Nack surfaced")
	}
	if nk.Dst != 9 || nk.Msg != "stray" {
		t.Fatalf("bad Nack: %+v (Msg must be unwrapped)", *nk)
	}
	if r.Nacks != 1 || r.Retransmits != 0 {
		t.Fatalf("nacks=%d retransmits=%d, want 1/0", r.Nacks, r.Retransmits)
	}
}

// TestReliableBackoffDoubles: retransmit intervals follow rto<<k (capped at
// maxRTO, which TestRetryWaitGoldenSchedule pins).
func TestReliableBackoffDoubles(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	var attempts []sim.Time
	fk.drop = func(src, dst mesh.NodeID, proto ProtoID, m interface{}) bool {
		if _, ok := m.(relFrame); ok {
			attempts = append(attempts, e.Now())
			return len(attempts) < 5 // deliver the 5th transmission
		}
		return false
	}
	r := NewReliable(e, fk)
	got := 0
	r.Register(1, protoP, func(mesh.NodeID, interface{}) { got++ })
	r.Send(0, 1, protoP, 0, "x")
	e.Run()
	if got != 1 {
		t.Fatalf("delivered %d times, want 1", got)
	}
	// Gaps between transmissions: 4ms, 8ms, 16ms, 32ms.
	want := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 16 * time.Millisecond, 32 * time.Millisecond}
	if len(attempts) != 5 {
		t.Fatalf("saw %d transmissions, want 5", len(attempts))
	}
	for i, w := range want {
		if gap := attempts[i+1] - attempts[i]; gap != w {
			t.Fatalf("gap %d = %v, want %v (attempts at %v)", i, gap, w, attempts)
		}
	}
}

// TestReliableSeparateLinkSequences: per-link sequence spaces must not
// interfere — traffic on one proto must not mark another's frames as dups.
func TestReliableSeparateLinkSequences(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	r := NewReliable(e, fk)
	protoA, protoB := RegisterProto("a"), RegisterProto("b")
	got := map[ProtoID]int{}
	for _, proto := range []ProtoID{protoA, protoB} {
		proto := proto
		r.Register(1, proto, func(mesh.NodeID, interface{}) { got[proto]++ })
		r.Register(2, proto, func(mesh.NodeID, interface{}) { got[proto]++ })
	}
	for i := 0; i < 3; i++ {
		r.Send(0, 1, protoA, 0, i)
		r.Send(0, 1, protoB, 0, i)
		r.Send(0, 2, protoA, 0, i)
	}
	e.Run()
	if got[protoA] != 6 || got[protoB] != 3 || r.DupsSuppressed != 0 {
		t.Fatalf("cross-link interference: got=%v dups=%d", got, r.DupsSuppressed)
	}
}

// TestRetryWaitGoldenSchedule pins the production backoff schedule as a
// golden sequence: 4 ms doubling to a 64 ms cap, 30 retransmissions, and
// the exhaustion horizon they add up to. Retuning any of the three constants
// is a deliberate act, reviewed as a diff of this list — the crash
// scenarios' virtual-time budgets (how long a survivor grinds before the
// organic peer-down verdict) are derived from it.
func TestRetryWaitGoldenSchedule(t *testing.T) {
	if rto != 4*time.Millisecond || maxRTO != 64*time.Millisecond || maxRetries != 30 {
		t.Fatalf("schedule changed: rto %v, maxRTO %v, maxRetries %d", rto, maxRTO, maxRetries)
	}
	var golden []time.Duration
	for _, ms := range []int{4, 8, 16, 32} {
		golden = append(golden, time.Duration(ms)*time.Millisecond)
	}
	for k := 4; k <= maxRetries; k++ {
		golden = append(golden, 64*time.Millisecond)
	}
	var total time.Duration
	for k := 0; k <= maxRetries; k++ {
		w := retryWait(k)
		if w != golden[k] {
			t.Errorf("retryWait(%d) = %v, want %v", k, w, golden[k])
		}
		total += w
	}
	// The horizon an unreachable peer costs before the organic verdict:
	// 4+8+16+32 + 27×64 = 1788 ms. Also pin that the left shift saturates
	// safely far past any real attempt count.
	if want := 1788 * time.Millisecond; total != want {
		t.Errorf("exhaustion horizon = %v, want %v", total, want)
	}
	if w := retryWait(200); w != maxRTO {
		t.Errorf("retryWait(200) = %v, want cap %v", w, maxRTO)
	}
}

// TestReliableGhostFrameFromDeadIncarnation: a frame a node left in flight
// when it crashed must not be delivered, acked, or — the regression this
// pins — allowed to re-seed the receiver's per-link dedup state, where it
// would mark the restarted sender's fresh sequence numbers as duplicates.
func TestReliableGhostFrameFromDeadIncarnation(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	r := NewReliable(e, fk)
	var got []string
	r.Register(1, protoP, func(_ mesh.NodeID, m interface{}) { got = append(got, m.(string)) })
	r.Send(0, 1, protoP, 0, "ghost") // in flight when the sender dies
	r.NodeCrashed(0)
	e.Run() // the ghost arrives stamped with incarnation 0 of a node now at 1
	if len(got) != 0 {
		t.Fatalf("ghost delivered: %v", got)
	}
	if r.StaleDrops != 1 || r.AcksSent != 0 {
		t.Fatalf("stale=%d acks=%d, want 1/0 (drop without ack)", r.StaleDrops, r.AcksSent)
	}
	r.PeerRestarted(0)
	r.Send(0, 1, protoP, 0, "fresh") // seq 1 of the new incarnation
	e.Run()
	if len(got) != 1 || got[0] != "fresh" {
		t.Fatalf("restarted sender suppressed: got=%v dups=%d", got, r.DupsSuppressed)
	}
}

// TestReliableCrashBounceSkipsDeliveredFrames: when the failure detector
// bounces a dead peer's inbound queue, a frame the peer demonstrably
// delivered (only its ack died) must complete silently, not return as a
// Nack — replaying a delivered ownership grant at its sender would mint a
// second owner. The undelivered frame on the same link must still bounce.
func TestReliableCrashBounceSkipsDeliveredFrames(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	dropAcks := false
	fk.drop = func(src, dst mesh.NodeID, proto ProtoID, m interface{}) bool {
		_, isAck := m.(relAck)
		return dropAcks && isAck
	}
	r := NewReliable(e, fk)
	delivered := 0
	r.Register(1, protoP, func(mesh.NodeID, interface{}) { delivered++ })
	var nacked []interface{}
	r.Register(0, protoP, func(_ mesh.NodeID, m interface{}) {
		if nk, ok := m.(Nack); ok {
			nacked = append(nacked, nk.Msg)
		}
	})
	dropAcks = true
	r.Send(0, 1, protoP, 0, "delivered-unacked")
	e.RunUntil(sim.Time(time.Millisecond / 2)) // first transmission lands; ack is dropped
	if delivered != 1 {
		t.Fatalf("delivered=%d, want 1", delivered)
	}
	fk.drop = func(mesh.NodeID, mesh.NodeID, ProtoID, interface{}) bool { return true }
	r.Send(0, 1, protoP, 0, "never-arrived") // eaten by the wire
	fk.drop = nil
	r.NodeCrashed(1)
	r.MarkPeerDown(0, 1)
	e.Run()
	if len(nacked) != 1 || nacked[0] != "never-arrived" {
		t.Fatalf("bounced %v, want exactly the undelivered frame", nacked)
	}
	if r.DeliveredFlushed != 1 {
		t.Fatalf("DeliveredFlushed=%d, want 1", r.DeliveredFlushed)
	}
	if delivered != 1 {
		t.Fatalf("delivered=%d after crash, want still 1", delivered)
	}
}

// nackCounter registers a sender-side handler on r that counts the Nacks
// node 0 hears on protoP.
func nackCounter(r *Reliable) *int {
	nacks := new(int)
	r.Register(0, protoP, func(_ mesh.NodeID, m interface{}) {
		if _, ok := m.(Nack); ok {
			*nacks++
		}
	})
	return nacks
}

// TestReliableDuplicatedBounceGoesUpOnce: a frame to a node with no handler,
// duplicated on the wire, bounces once per copy; the protocol above must
// hear one Nack — it recycles the message on that Nack, so a second one
// would free it twice.
func TestReliableDuplicatedBounceGoesUpOnce(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	ft := NewFaulty(e, fk, FaultPlan{Dup: 1}, sim.NewRNG(1))
	r := NewReliable(e, ft)
	nacks := nackCounter(r)
	r.Send(0, 9, protoP, 0, "stray") // node 9 never registered
	e.Run()
	if ft.Duplicated != 1 {
		t.Fatalf("duplicated=%d, want 1", ft.Duplicated)
	}
	if *nacks != 1 || r.Nacks != 1 {
		t.Fatalf("handler heard %d Nacks, Nacks=%d; want 1/1", *nacks, r.Nacks)
	}
}

// TestReliableRetransmittedBounceGoesUpOnce: a bounce that comes back after
// the retransmit timer fired bounces the retransmit too; still one Nack.
func TestReliableRetransmittedBounceGoesUpOnce(t *testing.T) {
	e := sim.NewEngine()
	fk := newFake(e)
	lag := 3 * rto
	ft := NewFaulty(e, fk, FaultPlan{Delay: 1, DelayMin: lag, DelayMax: lag}, sim.NewRNG(1))
	r := NewReliable(e, ft)
	nacks := nackCounter(r)
	r.Send(0, 9, protoP, 0, "stray")
	e.Run()
	if r.Retransmits == 0 {
		t.Fatal("no retransmit fired before the delayed bounce returned")
	}
	if bounces := ft.Delayed; bounces != 1+r.Retransmits {
		t.Fatalf("%d copies went out for %d retransmits", bounces, r.Retransmits)
	}
	if *nacks != 1 || r.Nacks != 1 {
		t.Fatalf("handler heard %d Nacks, Nacks=%d after %d retransmits; want 1/1",
			*nacks, r.Nacks, r.Retransmits)
	}
}
