package asvm

import (
	"cmp"
	"fmt"
	"strings"

	"asvm/internal/mesh"
	"asvm/internal/vm"
)

// CheckInvariants validates a quiesced domain's global state across all
// its nodes — the properties §3.5/§3.6 of the paper promise:
//
//  1. no dangling protocol state: no busy pages, queued requests, pending
//     faults, or unacknowledged transfers (checkAtRest);
//  2. the per-page safety core of checkPage, on every page;
//  3. liveness of ownership: a page some node holds has an owner;
//  4. home bookkeeping: an owner exists if and only if the home believes
//     the page is granted (never both granted and at-pager).
//
// It must be called with the simulation drained (Engine.Pending() == 0).
func CheckInvariants(cluster Cluster, info *DomainInfo) error {
	ins, err := liveInstances(cluster, info)
	if err != nil {
		return err
	}
	for _, in := range ins {
		if err := checkAtRest(in); err != nil {
			return err
		}
	}
	// With the home itself crashed there is no grant ledger to compare
	// against: it died with the home, and the survivors' safety properties
	// are all that crash-stop still promises.
	var home *Instance
	if !info.Down[info.Home] {
		home = cluster.node(info.Home).instances[info.ID]
	}
	for idx := vm.PageIdx(0); idx < info.SizePages; idx++ {
		if err := checkPage(ins, home, idx, true); err != nil {
			return err
		}
	}
	return nil
}

// CheckPageInvariants validates the safety core of the protocol for one
// page mid-flight (checkPage's rules 1–5) — it is sound at any quiesce
// point, not just at full drain. Owner existence and home bookkeeping are
// deliberately NOT checked: a grant or transfer legitimately in flight
// leaves zero owners, or a home whose view lags. If any instance still has
// the page in a busy state, the check vacuously passes — that instance's
// operation is mid-protocol and owns the page's consistency.
func CheckPageInvariants(cluster Cluster, info *DomainInfo, idx vm.PageIdx) error {
	ins, err := liveInstances(cluster, info)
	if err != nil {
		return err
	}
	return checkPage(ins, nil, idx, false)
}

// CheckInvariantsSampled is CheckInvariants; samplePages and seed are
// ignored. It is kept only because the frozen benchmark calls it by name.
func CheckInvariantsSampled(cluster Cluster, info *DomainInfo, samplePages int, seed uint64) error {
	return CheckInvariants(cluster, info)
}

// liveInstances lists the domain's instances on its surviving nodes, in
// Mapping order. A crashed node's state died with it (crash-stop).
func liveInstances(cluster Cluster, info *DomainInfo) ([]*Instance, error) {
	ins := make([]*Instance, 0, len(info.Mapping))
	for _, nid := range info.Mapping {
		if info.Down[nid] {
			continue
		}
		in := cluster.node(nid).instances[info.ID]
		if in == nil {
			return nil, fmt.Errorf("asvm: node %d lost its instance of %v", nid, info.ID)
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// checkAtRest is the per-node half of the drain check: every fault the
// node started has resolved, no completion is outstanding, and no page is
// busy or has requests queued on it.
func checkAtRest(in *Instance) error {
	nid := in.self()
	if len(in.pend) != 0 || len(in.pendPush) != 0 {
		return fmt.Errorf("asvm: node %d has dangling protocol completions", nid)
	}
	var err error
	in.slots.each(func(idx vm.PageIdx, sl *pageSlot) bool {
		if sl.state.FaultOut() {
			err = fmt.Errorf("asvm: node %d page %d fault still outstanding", nid, idx)
		} else if sl.state.Busy() {
			err = fmt.Errorf("asvm: node %d page %d still busy (%v)", nid, idx, sl.state)
		} else if sl.side && len(in.side[idx].queue) != 0 {
			err = fmt.Errorf("asvm: node %d page %d has %d queued requests", nid, idx, len(in.side[idx].queue))
		}
		return err == nil
	})
	return err
}

// checkPage checks one page's cross-node rules over the live instances
// ins. What can never happen, even transiently, once no instance is
// mid-operation on the page:
//
//  1. two owners (an ownership transfer hands over before the sender
//     forgets, but the sender stays busy until it has — so two owners with
//     every node's page at rest is a real protocol bug);
//  2. an owner not holding the page in its VM cache;
//  3. a writer that is not the owner, or a writer coexisting with copies;
//  4. a (non-owner) copy the owner does not know about — which covers a
//     ReadShared node missing from the owner's reader list;
//  5. protocol-state incoherence: an Owner with no readers, an OwnerSole
//     with readers, or a ReadShared node without its copy.
//
// A busy instance makes the page pass vacuously. drained adds the rules
// that hold only with nothing in flight: a held page has an owner, and the
// home (nil: not checked) has it granted exactly when it has one.
func checkPage(ins []*Instance, home *Instance, idx vm.PageIdx, drained bool) error {
	var owner *Instance
	owners := 0
	for _, in := range ins {
		sl := in.slots.get(idx)
		switch {
		case sl.state.Busy():
			return nil // mid-operation: state legitimately transient
		case sl.state == StOwner && sl.readers.Len() == 0:
			return fmt.Errorf("asvm: node %d page %d in state Owner with no readers", in.self(), idx)
		case sl.state == StOwnerSole && sl.readers.Len() != 0:
			return fmt.Errorf("asvm: node %d page %d in state OwnerSole with %d readers", in.self(), idx, sl.readers.Len())
		case sl.state == StReadShared && !in.o.Resident(idx):
			return fmt.Errorf("asvm: node %d page %d in state ReadShared without a copy", in.self(), idx)
		}
		if sl.state.AtRest() {
			owners++
			if owner == nil {
				owner = in
			}
		}
	}
	if owners > 1 {
		var ns []mesh.NodeID
		for _, in := range ins {
			if in.slots.state(idx).AtRest() {
				ns = append(ns, in.self())
			}
		}
		return fmt.Errorf("asvm: page %d has %d owners: %v", idx, owners, ns)
	}
	if owner != nil && !owner.o.Resident(idx) {
		return fmt.Errorf("asvm: node %d owns page %d without holding it (owner invariant)", owner.self(), idx)
	}

	holders, writers := 0, 0
	for _, in := range ins {
		pg := in.o.Lookup(idx)
		if pg == nil {
			continue
		}
		holders++
		if pg.Lock >= vm.ProtWrite {
			writers++
			if in != owner {
				return fmt.Errorf("asvm: page %d write-held by non-owner node %d", idx, in.self())
			}
		}
		if in == owner {
			continue
		}
		if owner == nil {
			if drained {
				return fmt.Errorf("asvm: page %d resident on node %d with no owner", idx, in.self())
			}
		} else if sl := owner.slots.get(idx); !sl.readers.Contains(&owner.arena, in.self()) {
			return fmt.Errorf("asvm: page %d held by node %d unknown to owner %d", idx, in.self(), owner.self())
		}
	}
	if writers > 0 && holders > 1 {
		return fmt.Errorf("asvm: page %d has a writer and %d other copies", idx, holders-1)
	}

	if drained && home != nil {
		hs := home.slots.get(idx).home
		if hs.granted() && hs.atPager() {
			return fmt.Errorf("asvm: page %d both granted and at pager", idx)
		}
		if hs.granted() != (owner != nil) {
			return fmt.Errorf("asvm: page %d home granted=%v but owner-exists=%v", idx, hs.granted(), owner != nil)
		}
	}
	return nil
}

// OutstandingFaults counts surviving nodes' pages still in a FaultOut
// state. At drain this is the liveness contract: every fault a live node
// started must have resolved — granted, or failed with a typed error —
// because a task is parked on each one. (CheckInvariants reports these too;
// this helper lets a liveness checker name the violation precisely and list
// the stuck pages.)
func OutstandingFaults(cluster Cluster, info *DomainInfo) (stuck []vm.PageIdx) {
	for _, nid := range info.Mapping {
		if info.Down[nid] {
			continue
		}
		in := cluster.node(nid).instances[info.ID]
		if in == nil {
			continue
		}
		in.slots.each(func(idx vm.PageIdx, sl *pageSlot) bool {
			if sl.state.FaultOut() {
				stuck = append(stuck, idx)
			}
			return true
		})
	}
	return stuck
}

// DumpPage renders one page's cross-node protocol state — each node's
// PageProtoState, owner reader lists, holders with locks, home
// bookkeeping, in-flight fault state — for invariant-failure reports.
func DumpPage(cluster Cluster, info *DomainInfo, idx vm.PageIdx) string {
	var b strings.Builder
	fmt.Fprintf(&b, "page %d of %v:", idx, info.ID)
	for _, nid := range info.Mapping {
		nd := cluster.ByID(nid)
		if nd == nil {
			continue
		}
		in := nd.instances[info.ID]
		if in == nil {
			continue
		}
		sl, ss := in.slots.get(idx), cmp.Or(in.side[idx], &slotSide{})
		var parts []string
		if sl.state != StInvalid {
			parts = append(parts, fmt.Sprintf("state=%v", sl.state))
		}
		if sl.state.Owner() {
			readers := sl.readers.AppendTo(&in.arena, make([]mesh.NodeID, 0, sl.readers.Len()))
			parts = append(parts, fmt.Sprintf("readers=%v held=%v queued=%d ver=%d",
				readers, sl.held, len(ss.queue), sl.version))
		}
		if pg := in.o.Pages[idx]; pg != nil {
			parts = append(parts, fmt.Sprintf("holds lock=%v evicting=%v", pg.Lock, pg.Evicting))
		}
		if sl.state.FaultOut() {
			parts = append(parts, fmt.Sprintf("fault-pending want=%v staleFrom=%v", sl.want, ss.staleFrom))
		}
		if sl.home != 0 {
			parts = append(parts, fmt.Sprintf("home granted=%v atPager=%v", sl.home.granted(), sl.home.atPager()))
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, "\n  n%d: %s", nid, strings.Join(parts, "; "))
		}
	}
	return b.String()
}
