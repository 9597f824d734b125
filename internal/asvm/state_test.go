package asvm

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"asvm/internal/sim"
	"asvm/internal/xport"
)

// goldenMatrix pins the full state×event legality matrix. Changing the
// protocol's shape — adding a state, legalizing a pair, renaming an
// action — is a deliberate act, reviewed as a diff of this rendering.
const goldenMatrix = `Invalid: AccessReq=fwdReq Grant=grantLate Inval=invalLate OwnerUpdate=ownerHint OwnerXfer=xferTake PageOffer=offerTake ToPager=pagerPark ToPagerAck=pagerAckLoose FaultRead=faultStart FaultWrite=faultStart Evict=evictDiscard Teardown=teardown ReqNack=nackResume Crash=crash PeerDown=peerDead
FaultOutRead: AccessReq=fwdReq Grant=grant Inval=invalStale OwnerUpdate=ownerHint OwnerXfer=xferDecline PageOffer=offerDecline ToPager=pagerPark ToPagerAck=pagerAckLoose FaultRead=faultMerge FaultWrite=faultMerge Evict=evictDiscard Teardown=teardown ReqNack=nackResume Crash=crash PeerDown=peerDead
FaultOutWrite: AccessReq=fwdReq Grant=grant Inval=invalStale OwnerUpdate=ownerHint OwnerXfer=xferDecline PageOffer=offerDecline ToPager=pagerPark ToPagerAck=pagerAckLoose FaultRead=faultMerge FaultWrite=faultMerge Evict=evictDiscard Teardown=teardown ReqNack=nackResume Crash=crash PeerDown=peerDead
ReadShared: AccessReq=fwdReq Grant=grantLate Inval=invalDrop OwnerUpdate=ownerHint OwnerXfer=xferTake PageOffer=offerDecline ToPager=pagerPark ToPagerAck=pagerAckLoose FaultWrite=upgradeStart Evict=evictDiscard Teardown=teardown ReqNack=nackResume Crash=crash PeerDown=peerDead
Owner: AccessReq=serveReq Grant=grantLate OwnerUpdate=ownerHint OwnerXfer=xferDecline PageOffer=offerDecline ToPagerAck=pagerAckLoose FaultWrite=upgradeSelf Evict=evictOwner Teardown=teardown ReqNack=nackResume Crash=crash PeerDown=peerDead
OwnerSole: AccessReq=serveReq Grant=grantLate OwnerUpdate=ownerHint OwnerXfer=xferDecline PageOffer=offerDecline ToPagerAck=pagerAckLoose FaultWrite=upgradeSelf Evict=evictOwner Teardown=teardown ReqNack=nackResume Crash=crash PeerDown=peerDead
Serving: AccessReq=queueReq Grant=grantBusy OwnerUpdate=ownerHint OwnerXfer=xferDecline PageOffer=offerDecline ToPagerAck=pagerAckLoose FaultWrite=upgradeQueue Evict=evictCancel PushStart=pushScan Teardown=teardown ReqNack=nackResume Crash=crash PeerDown=peerDead
PushWait: AccessReq=queueReq Grant=grantBusy OwnerUpdate=ownerHint OwnerXfer=xferDecline PageOffer=offerDecline ToPagerAck=pagerAckLoose PushScanAck=pushAck FaultWrite=upgradeQueue Evict=evictCancel Teardown=teardown ReqNack=nackResume Crash=crash PeerDown=peerDead
InvalWait: AccessReq=queueReq Grant=grantBusy InvalAck=invalAck OwnerUpdate=ownerHint OwnerXfer=xferDecline PageOffer=offerDecline ToPagerAck=pagerAckLoose FaultWrite=upgradeQueue Evict=evictCancel Teardown=teardown ReqNack=nackResume Crash=crash PeerDown=peerDead
XferOut: AccessReq=queueReq Grant=grantBusy OwnerUpdate=ownerHint OwnerXfer=xferDecline OwnerXferAck=xferAck PageOffer=offerDecline PageOfferAck=offerAck ToPagerAck=pagerAck FaultWrite=upgradeQueue Evict=evictCancel Teardown=teardown ReqNack=nackResume Crash=crash PeerDown=peerDead
`

// The crash-stop model legalized 33 pairs — Crash and PeerDown in every
// state, grantBusy in the four busy states, and the loose pager ack (a Lost
// report's ack is sequence-matched, so it may return to a slot in any
// non-XferOut state) — taking the legal count from 103 to 136. DESIGN.md
// states the count too; the test reads it there, so the two cannot drift.
func TestTransitionMatrixGolden(t *testing.T) {
	if got := TransitionMatrix(); got != goldenMatrix {
		t.Errorf("transition matrix changed.\ngot:\n%s\nwant:\n%s", got, goldenMatrix)
	}
	if got := LegalTransitions(); got != 136 {
		t.Errorf("LegalTransitions() = %d, want 136", got)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	stated := regexp.MustCompile(`\*\*The table\.\*\* (\d+ of the \d+) cells are legal`).FindSubmatch(design)
	want := fmt.Sprintf("%d of the %d", LegalTransitions(), NumPageStates*NumProtoEvents)
	if stated == nil || string(stated[1]) != want {
		t.Errorf("DESIGN.md must say \"**The table.** %s cells are legal\"; it says %q", want, stated)
	}
}

// TestEveryHandledMsgKindIsAProtoEvent pins the exhaustiveness of the
// event alphabet: each of the message kinds Node.handle dispatches maps
// to a distinct ProtoEvent, those events fill the message half of the
// alphabet exactly (EvAccessReq..EvPushScanAck), and each has at least
// one legal source state.
func TestEveryHandledMsgKindIsAProtoEvent(t *testing.T) {
	kinds := []xport.MsgKind{
		msgAccessReq, msgGrant, msgInval, msgInvalAck,
		msgOwnerUpdate, msgOwnerXfer, msgOwnerXferAck,
		msgPageOffer, msgPageOfferAck, msgToPager, msgToPagerAck,
		msgPushScanAck,
	}
	if len(kinds) != int(msgPushScanAck)+1 {
		t.Fatalf("kind list has %d entries, want %d (a kind was added without updating this test)",
			len(kinds), int(msgPushScanAck)+1)
	}
	seen := map[ProtoEvent]xport.MsgKind{}
	for _, k := range kinds {
		ev, ok := eventForMsgKind(k)
		if !ok {
			t.Errorf("message kind %d has no ProtoEvent", k)
			continue
		}
		if prev, dup := seen[ev]; dup {
			t.Errorf("kinds %d and %d map to the same event %v", prev, k, ev)
		}
		seen[ev] = k
		if ev > EvPushScanAck {
			t.Errorf("kind %d maps to local event %v", k, ev)
		}
		legal := 0
		for s := 0; s < NumPageStates; s++ {
			if TransitionLegal(PageProtoState(s), ev) {
				legal++
			}
		}
		if legal == 0 {
			t.Errorf("event %v has no legal source state", ev)
		}
	}
	if len(seen) != int(EvPushScanAck)+1 {
		t.Errorf("message kinds cover %d events, want %d", len(seen), int(EvPushScanAck)+1)
	}
}

func TestStateAndEventNamesComplete(t *testing.T) {
	for s := 0; s < NumPageStates; s++ {
		if name := PageProtoState(s).String(); name == "" || strings.HasPrefix(name, "PageProtoState(") {
			t.Errorf("state %d has no name", s)
		}
	}
	for e := 0; e < NumProtoEvents; e++ {
		if name := ProtoEvent(e).String(); name == "" || strings.HasPrefix(name, "ProtoEvent(") {
			t.Errorf("event %d has no name", e)
		}
	}
}

// The predicates are what the protocol files branch on; pin their
// meaning against the state ordering they rely on.
func TestStatePredicates(t *testing.T) {
	wantOwner := map[PageProtoState]bool{
		StOwner: true, StOwnerSole: true, StServing: true,
		StPushWait: true, StInvalWait: true, StXferOut: true,
	}
	wantBusy := map[PageProtoState]bool{
		StServing: true, StPushWait: true, StInvalWait: true, StXferOut: true,
	}
	for s := 0; s < NumPageStates; s++ {
		st := PageProtoState(s)
		if st.Owner() != wantOwner[st] {
			t.Errorf("%v.Owner() = %v", st, st.Owner())
		}
		if st.Busy() != wantBusy[st] {
			t.Errorf("%v.Busy() = %v", st, st.Busy())
		}
		if st.AtRest() != (wantOwner[st] && !wantBusy[st]) {
			t.Errorf("%v.AtRest() = %v", st, st.AtRest())
		}
		if st.FaultOut() != (st == StFaultOutRead || st == StFaultOutWrite) {
			t.Errorf("%v.FaultOut() = %v", st, st.FaultOut())
		}
	}
}

func TestIllegalTransitionPanics(t *testing.T) {
	c := newCluster(t, 2, 0, DefaultConfig())
	tasks := c.shared(t, 2, DefaultConfig())
	c.run(t, func(p *sim.Proc) error {
		return tasks[0].WriteU64(p, 0, 1)
	})
	in := c.asvms[0].Instance(sharedID)
	if in.State(0) != StOwnerSole {
		t.Fatalf("writer in state %v, want OwnerSole", in.State(0))
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("illegal transition did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "OwnerSole") || !strings.Contains(msg, "InvalAck") {
			t.Fatalf("panic %q does not name both state and event", msg)
		}
	}()
	in.dispatch(EvInvalAck, 0, &invalAck{Obj: in.info.ID, Idx: 0})
}

func TestCoverageHelpers(t *testing.T) {
	var c Coverage
	hit, legal := c.Exercised()
	if hit != 0 || legal != LegalTransitions() {
		t.Fatalf("empty coverage: hit=%d legal=%d, want 0/%d", hit, legal, LegalTransitions())
	}
	var o Coverage
	o[StInvalid][EvFaultRead] = 3
	c.Merge(&o)
	c.Merge(&o)
	if c[StInvalid][EvFaultRead] != 6 {
		t.Fatalf("merge: cell = %d, want 6", c[StInvalid][EvFaultRead])
	}
	hit, _ = c.Exercised()
	if hit != 1 {
		t.Fatalf("hit = %d, want 1", hit)
	}
	miss := c.Unexercised()
	if len(miss) != legal-1 {
		t.Fatalf("unexercised = %d entries, want %d", len(miss), legal-1)
	}
	for _, m := range miss {
		if m == "Invalid×FaultRead" {
			t.Fatal("exercised pair listed as unexercised")
		}
	}
}
