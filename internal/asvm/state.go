package asvm

import (
	"fmt"
	"strings"

	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// This file is the protocol core's explicit state machine. The paper's
// claim that "protocol engines never block kernel threads" used to be
// encoded implicitly — a busy bool, a pending-fault map and flag logic
// scattered across the asvm files. Here it is explicit: every page is in
// exactly one PageProtoState, every stimulus (incoming message or local
// kernel event) is a ProtoEvent, and the (state, event) pair indexes a
// transition table. Legal pairs name their action; illegal pairs panic
// with both names instead of silently corrupting shared state. Every
// dispatched transition bumps sim.CtrProtoTransitions, feeds the node's
// coverage matrix (which the schedule explorer reports), and emits a
// TraceBuf line when tracing is on.

// PageProtoState is one page's protocol state at one node.
//
// The ordering is load-bearing: states from StOwner up are owner states
// (the node holds page ownership), and states from StServing up are the
// busy-with-reason states — the window the old code spent with the busy
// bit set, during which requests queue and mid-flight invariant checks
// pass vacuously.
type PageProtoState uint8

const (
	// StInvalid: no copy, no ownership, no fault outstanding.
	StInvalid PageProtoState = iota
	// StFaultOutRead: a read fault left this node; a grant is due.
	StFaultOutRead
	// StFaultOutWrite: a write fault (or upgrade) left this node.
	StFaultOutWrite
	// StReadShared: holds a read copy granted by the owner.
	StReadShared
	// StOwner: owner at rest with at least one remote reader.
	StOwner
	// StOwnerSole: owner at rest with no remote readers.
	StOwnerSole
	// StServing: owner processing one request (the synchronous window).
	StServing
	// StPushWait: owner waiting for a push-scan ack before a write grant.
	StPushWait
	// StInvalWait: owner waiting for invalidation acks.
	StInvalWait
	// StXferOut: owner mid-eviction (transfer/offer/pageout in flight).
	StXferOut

	NumPageStates = int(StXferOut) + 1
)

var pageStateNames = [NumPageStates]string{
	StInvalid:       "Invalid",
	StFaultOutRead:  "FaultOutRead",
	StFaultOutWrite: "FaultOutWrite",
	StReadShared:    "ReadShared",
	StOwner:         "Owner",
	StOwnerSole:     "OwnerSole",
	StServing:       "Serving",
	StPushWait:      "PushWait",
	StInvalWait:     "InvalWait",
	StXferOut:       "XferOut",
}

func (s PageProtoState) String() string {
	if int(s) < NumPageStates {
		return pageStateNames[s]
	}
	return fmt.Sprintf("PageProtoState(%d)", int(s))
}

// Owner reports whether the state carries page ownership.
func (s PageProtoState) Owner() bool { return s >= StOwner }

// Busy reports whether the owner is mid-operation (the old busy bit).
func (s PageProtoState) Busy() bool { return s >= StServing }

// AtRest reports an owner with no operation in progress.
func (s PageProtoState) AtRest() bool { return s == StOwner || s == StOwnerSole }

// FaultOut reports an outstanding local fault (the old pend entry).
func (s PageProtoState) FaultOut() bool {
	return s == StFaultOutRead || s == StFaultOutWrite
}

// ProtoEvent is one stimulus to a page's state machine: every incoming
// protocol message kind, plus the local events the kernel and the domain
// lifecycle inject.
type ProtoEvent uint8

const (
	EvAccessReq ProtoEvent = iota
	EvGrant
	EvInval
	EvInvalAck
	EvOwnerUpdate
	EvOwnerXfer
	EvOwnerXferAck
	EvPageOffer
	EvPageOfferAck
	EvToPager
	EvToPagerAck
	EvPushScanAck
	// Local stimuli.
	EvFaultRead  // kernel read miss (vm.MemoryManager.DataRequest)
	EvFaultWrite // kernel write miss or upgrade (DataRequest/DataUnlock)
	EvEvict      // kernel pageout (vm.MemoryManager.DataReturn)
	EvPushStart  // a write grant needs the pre-copy contents pushed first
	EvTeardown   // domain teardown drops the page's protocol state
	EvReqNack    // a forwarded request bounced off a dead node
	EvCrash      // this node crashed: the page's state dies with it
	EvPeerDown   // a peer was declared dead: scrub it / re-drive the fault

	NumProtoEvents = int(EvPeerDown) + 1
)

var protoEventNames = [NumProtoEvents]string{
	EvAccessReq:    "AccessReq",
	EvGrant:        "Grant",
	EvInval:        "Inval",
	EvInvalAck:     "InvalAck",
	EvOwnerUpdate:  "OwnerUpdate",
	EvOwnerXfer:    "OwnerXfer",
	EvOwnerXferAck: "OwnerXferAck",
	EvPageOffer:    "PageOffer",
	EvPageOfferAck: "PageOfferAck",
	EvToPager:      "ToPager",
	EvToPagerAck:   "ToPagerAck",
	EvPushScanAck:  "PushScanAck",
	EvFaultRead:    "FaultRead",
	EvFaultWrite:   "FaultWrite",
	EvEvict:        "Evict",
	EvPushStart:    "PushStart",
	EvTeardown:     "Teardown",
	EvReqNack:      "ReqNack",
	EvCrash:        "Crash",
	EvPeerDown:     "PeerDown",
}

func (e ProtoEvent) String() string {
	if int(e) < NumProtoEvents {
		return protoEventNames[e]
	}
	return fmt.Sprintf("ProtoEvent(%d)", int(e))
}

// eventForMsgKind maps an incoming message kind to its protocol event —
// the exhaustiveness test pins that every kind Node.handle dispatches has
// an entry here.
func eventForMsgKind(k xport.MsgKind) (ProtoEvent, bool) {
	switch k {
	case msgAccessReq:
		return EvAccessReq, true
	case msgGrant:
		return EvGrant, true
	case msgInval:
		return EvInval, true
	case msgInvalAck:
		return EvInvalAck, true
	case msgOwnerUpdate:
		return EvOwnerUpdate, true
	case msgOwnerXfer:
		return EvOwnerXfer, true
	case msgOwnerXferAck:
		return EvOwnerXferAck, true
	case msgPageOffer:
		return EvPageOffer, true
	case msgPageOfferAck:
		return EvPageOfferAck, true
	case msgToPager:
		return EvToPager, true
	case msgToPagerAck:
		return EvToPagerAck, true
	case msgPushScanAck:
		return EvPushScanAck, true
	}
	return 0, false
}

// protoAction executes one legal transition. m is the dispatch payload:
// the incoming message for message events, and a small typed value for
// local stimuli (vm.Prot for faults, *evictEvent for pageout, func() for
// push starts, xport.Nack for bounces, nil for teardown).
type protoAction func(in *Instance, idx vm.PageIdx, m interface{})

// transition is one legal (state, event) table entry. next-state logic
// lives in the action (many transitions pick their successor dynamically:
// a grant lands in ReadShared or Owner/OwnerSole depending on what it
// carries), but the name is static and pinned by the golden matrix test.
type transition struct {
	name string
	act  protoAction
}

// protoTable is the full legality matrix: nil entries are illegal pairs
// and panic on dispatch.
var protoTable [NumPageStates][NumProtoEvents]*transition

func entry(ev ProtoEvent, name string, act protoAction, states ...PageProtoState) {
	t := &transition{name: name, act: act}
	for _, s := range states {
		if protoTable[s][ev] != nil {
			panic(fmt.Sprintf("asvm: duplicate transition %v × %v", s, ev))
		}
		protoTable[s][ev] = t
	}
}

// State groups used while declaring the table.
var (
	allStates = []PageProtoState{
		StInvalid, StFaultOutRead, StFaultOutWrite, StReadShared,
		StOwner, StOwnerSole, StServing, StPushWait, StInvalWait, StXferOut,
	}
	busyStates  = []PageProtoState{StServing, StPushWait, StInvalWait, StXferOut}
	restStates  = []PageProtoState{StOwner, StOwnerSole}
	faultStates = []PageProtoState{StFaultOutRead, StFaultOutWrite}
)

func init() {
	// Requests route by the redirector at non-owners, serve at an owner at
	// rest, and queue at a busy owner (handleAsOwner branches on exactly
	// this state split).
	entry(EvAccessReq, "fwdReq", actAccessReq,
		StInvalid, StFaultOutRead, StFaultOutWrite, StReadShared)
	entry(EvAccessReq, "serveReq", actAccessReq, restStates...)
	entry(EvAccessReq, "queueReq", actAccessReq, busyStates...)

	// Grants normally answer an outstanding fault; the tolerant late
	// variants keep today's behaviour for grants that arrive after the
	// fault was satisfied through another path (retries and races make
	// this reachable). A grant into a busy owner would corrupt the
	// operation in flight — loud, unless a crash-era re-driven fault
	// resolved twice, in which case the duplicate is dead on arrival.
	entry(EvGrant, "grant", actGrant, faultStates...)
	entry(EvGrant, "grantLate", actGrant,
		StInvalid, StReadShared, StOwner, StOwnerSole)
	entry(EvGrant, "grantBusy", actGrantBusy, busyStates...)

	// Invalidation: drop a read copy, mark a stale in-flight grant while
	// faulting (the explorer-found stale-grant transition, PR 4), or just
	// ack when there is nothing left to drop. An owner is never a target
	// of its own invalidation round.
	entry(EvInval, "invalLate", actInval, StInvalid)
	entry(EvInval, "invalStale", actInval, faultStates...)
	entry(EvInval, "invalDrop", actInval, StReadShared)

	entry(EvInvalAck, "invalAck", actInvalAck, StInvalWait)

	// Static-manager cache refresh: orthogonal to the page's own state.
	entry(EvOwnerUpdate, "ownerHint", actOwnerUpdate, allStates...)

	// Eviction offers: a reader may take ownership over; everyone else
	// declines (a faulting node must not adopt a page mid-fault, and an
	// owner already has one).
	entry(EvOwnerXfer, "xferTake", actOwnerXfer, StInvalid, StReadShared)
	entry(EvOwnerXfer, "xferDecline", actOwnerXferDecline,
		StFaultOutRead, StFaultOutWrite,
		StOwner, StOwnerSole, StServing, StPushWait, StInvalWait, StXferOut)
	entry(EvOwnerXferAck, "xferAck", actOwnerXferAck, StXferOut)

	entry(EvPageOffer, "offerTake", actPageOffer, StInvalid)
	entry(EvPageOffer, "offerDecline", actPageOfferDecline,
		StFaultOutRead, StFaultOutWrite, StReadShared,
		StOwner, StOwnerSole, StServing, StPushWait, StInvalWait, StXferOut)
	entry(EvPageOfferAck, "offerAck", actPageOfferAck, StXferOut)

	// Pager parking arrives at the home node, which by definition is not
	// the page's owner at that moment (there is an owner evicting it).
	entry(EvToPager, "pagerPark", actToPager,
		StInvalid, StFaultOutRead, StFaultOutWrite, StReadShared)
	entry(EvToPagerAck, "pagerAck", actToPagerAck, StXferOut)
	// A Lost report's ack is sequence-matched, not state-matched: it may
	// return to a slot the bounced grant left in any state (crash era
	// only; the action panics otherwise).
	entry(EvToPagerAck, "pagerAckLoose", actToPagerAckLoose,
		StInvalid, StFaultOutRead, StFaultOutWrite, StReadShared,
		StOwner, StOwnerSole, StServing, StPushWait, StInvalWait)

	entry(EvPushScanAck, "pushAck", actPushScanAck, StPushWait)

	// Local faults: start a fault, merge into one already outstanding
	// (the kernel coalesces per-page faults, but a read fault can widen
	// to a write while in flight), upgrade a read copy, or self-serve at
	// the owner (queueing behind whatever it is doing).
	entry(EvFaultRead, "faultStart", actFault, StInvalid)
	entry(EvFaultRead, "faultMerge", actFault, faultStates...)
	entry(EvFaultWrite, "faultStart", actFault, StInvalid)
	entry(EvFaultWrite, "faultMerge", actFault, faultStates...)
	entry(EvFaultWrite, "upgradeStart", actFault, StReadShared)
	entry(EvFaultWrite, "upgradeSelf", actFaultOwner, restStates...)
	entry(EvFaultWrite, "upgradeQueue", actFaultOwner, busyStates...)

	// Kernel pageout: discard a non-owned copy, start the owner eviction
	// chain, or cancel when the page is mid-protocol or range-held.
	entry(EvEvict, "evictDiscard", actEvictDiscard,
		StInvalid, StFaultOutRead, StFaultOutWrite, StReadShared)
	entry(EvEvict, "evictOwner", actEvictOwner, restStates...)
	entry(EvEvict, "evictCancel", actEvictCancel, busyStates...)

	entry(EvPushStart, "pushScan", actPushStart, StServing)

	entry(EvTeardown, "teardown", actTeardown, allStates...)

	// A bounced request re-enters the redirector whatever our own page
	// state is — we may even own the page by now and serve it.
	entry(EvReqNack, "nackResume", actReqNack, allStates...)

	// Crash-stop fates. EvCrash runs on the dying node's own instance and
	// is legal everywhere: whatever the page was doing, the state dies with
	// the node. EvPeerDown runs on survivors: a faulting page re-drives its
	// request past the dead node, an owner scrubs the dead node from its
	// reader list. Both are dispatched only by the failure machinery.
	entry(EvCrash, "crash", actCrash, allStates...)
	entry(EvPeerDown, "peerDead", actPeerDown, allStates...)
}

// dispatch funnels one event into the page's state machine: legality
// check, transition counter, coverage cell, trace line, action.
func (in *Instance) dispatch(ev ProtoEvent, idx vm.PageIdx, m interface{}) {
	sl := &in.slots[idx]
	t := protoTable[sl.state][ev]
	if t == nil {
		panic(fmt.Sprintf("asvm: illegal transition %v × %v on %v page %d at node %d",
			sl.state, ev, in.info.ID, idx, in.self()))
	}
	in.nd.Ctr.V[sim.CtrProtoTransitions]++
	in.nd.Cover[sl.state][ev]++
	if in.nd.Trace.on {
		in.trace("s %s: %v×%v p%d", t.name, sl.state, ev, idx)
	}
	t.act(in, idx, m)
}

// setState moves a page to a new protocol state. Actions use it for the
// dynamic successor states the table entries describe.
func (in *Instance) setState(idx vm.PageIdx, to PageProtoState) {
	in.slots[idx].state = to
}

// restOwnerState is the at-rest owner state implied by the reader list.
func restOwnerState(readers int) PageProtoState {
	if readers > 0 {
		return StOwner
	}
	return StOwnerSole
}

// ---------------------------------------------------------------------------
// Coverage

// Coverage counts dispatched transitions per (state, event) cell. Each
// Node accumulates one; the schedule explorer merges them across nodes
// and runs to report which table entries a search actually exercised.
type Coverage [NumPageStates][NumProtoEvents]uint64

// Merge adds o's counts into c.
func (c *Coverage) Merge(o *Coverage) {
	for s := 0; s < NumPageStates; s++ {
		for e := 0; e < NumProtoEvents; e++ {
			c[s][e] += o[s][e]
		}
	}
}

// Exercised returns how many legal table entries have nonzero counts,
// and the total number of legal entries.
func (c *Coverage) Exercised() (hit, legal int) {
	for s := 0; s < NumPageStates; s++ {
		for e := 0; e < NumProtoEvents; e++ {
			if protoTable[s][e] == nil {
				continue
			}
			legal++
			if c[s][e] > 0 {
				hit++
			}
		}
	}
	return hit, legal
}

// Unexercised lists the legal "State×Event" pairs with zero counts.
func (c *Coverage) Unexercised() []string {
	var out []string
	for s := 0; s < NumPageStates; s++ {
		for e := 0; e < NumProtoEvents; e++ {
			if protoTable[s][e] != nil && c[s][e] == 0 {
				out = append(out, fmt.Sprintf("%v×%v", PageProtoState(s), ProtoEvent(e)))
			}
		}
	}
	return out
}

// TransitionLegal reports whether the table has an entry for the pair.
func TransitionLegal(s PageProtoState, e ProtoEvent) bool {
	return protoTable[s][e] != nil
}

// LegalTransitions counts the table's legal entries.
func LegalTransitions() int {
	n := 0
	for s := 0; s < NumPageStates; s++ {
		for e := 0; e < NumProtoEvents; e++ {
			if protoTable[s][e] != nil {
				n++
			}
		}
	}
	return n
}

// TransitionMatrix renders the full legality matrix, one line per state,
// as "State: Event=action ..." with events in declaration order. The
// golden test pins this string: changing the protocol's shape is a
// deliberate act, reviewed as a diff of this rendering.
func TransitionMatrix() string {
	var b strings.Builder
	for s := 0; s < NumPageStates; s++ {
		fmt.Fprintf(&b, "%v:", PageProtoState(s))
		for e := 0; e < NumProtoEvents; e++ {
			if t := protoTable[s][e]; t != nil {
				fmt.Fprintf(&b, " %v=%s", ProtoEvent(e), t.name)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
