package asvm

import (
	"cmp"
	"fmt"
	"strings"

	"asvm/internal/mesh"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// CheckInvariants validates a quiesced domain's global state across all
// its nodes — the properties §3.5/§3.6 of the paper promise:
//
//  1. single writer or multiple readers: at most one owner per page, and
//     if any node holds write access it is the owner and nobody else has
//     the page;
//  2. the owner invariant: every owner holds the page in its VM cache;
//  3. readers known to the owner: every node holding a (non-owner) copy
//     appears on the owner's reader list;
//  4. home bookkeeping: an owner exists if and only if the home believes
//     the page is granted (never both granted and at-pager);
//  5. no dangling protocol state: no busy pages, queued requests, pending
//     faults, or unacknowledged transfers;
//  6. protocol-state coherence: each page's PageProtoState agrees with
//     the data it summarizes — Owner has readers, OwnerSole has none, a
//     ReadShared node holds the copy and appears on the owner's list.
//
// It must be called with the simulation drained (Engine.Pending() == 0).
func CheckInvariants(cluster Cluster, info *DomainInfo) error {
	type holder struct {
		node mesh.NodeID
		pg   *vm.Page
		in   *Instance
	}
	holders := make(map[vm.PageIdx][]holder)
	owners := make(map[vm.PageIdx][]*Instance)
	readShared := make(map[vm.PageIdx][]mesh.NodeID)

	for _, nid := range info.Mapping {
		if info.Down[nid] {
			continue // crashed: its state died with it (crash-stop)
		}
		nd := cluster.node(nid)
		in := nd.instances[info.ID]
		if in == nil {
			return fmt.Errorf("asvm: node %d lost its instance of %v", nid, info.ID)
		}
		pend := 0
		in.slots.each(func(_ vm.PageIdx, sl *pageSlot) bool {
			if sl.state.FaultOut() {
				pend++
			}
			return true
		})
		if pend != 0 {
			return fmt.Errorf("asvm: node %d has %d pending faults", nid, pend)
		}
		if len(in.pend) != 0 || len(in.pendPush) != 0 {
			return fmt.Errorf("asvm: node %d has dangling protocol completions", nid)
		}
		var err error
		in.slots.each(func(idx vm.PageIdx, sl *pageSlot) bool {
			if sl.state.Busy() {
				err = fmt.Errorf("asvm: node %d page %d still busy (%v)", nid, idx, sl.state)
				return false
			}
			if sl.side && len(in.side[idx].queue) != 0 {
				err = fmt.Errorf("asvm: node %d page %d has %d queued requests", nid, idx, len(in.side[idx].queue))
				return false
			}
			switch sl.state {
			case StOwner, StOwnerSole:
				owners[idx] = append(owners[idx], in)
				if !in.o.Resident(idx) {
					err = fmt.Errorf("asvm: node %d owns page %d without holding it (owner invariant)", nid, idx)
				} else if sl.state == StOwner && sl.readers.Len() == 0 {
					err = fmt.Errorf("asvm: node %d page %d in state Owner with no readers", nid, idx)
				} else if sl.state == StOwnerSole && sl.readers.Len() != 0 {
					err = fmt.Errorf("asvm: node %d page %d in state OwnerSole with %d readers", nid, idx, sl.readers.Len())
				}
			case StReadShared:
				if !in.o.Resident(idx) {
					err = fmt.Errorf("asvm: node %d page %d in state ReadShared without a copy", nid, idx)
				}
				readShared[idx] = append(readShared[idx], nid)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
		for idx, pg := range in.o.Pages {
			if pg != nil {
				holders[vm.PageIdx(idx)] = append(holders[vm.PageIdx(idx)], holder{nid, pg, in})
			}
		}
	}

	for idx, os := range owners {
		if len(os) > 1 {
			ns := make([]mesh.NodeID, len(os))
			for i, in := range os {
				ns[i] = in.self()
			}
			return fmt.Errorf("asvm: page %d has %d owners: %v", idx, len(os), ns)
		}
	}

	// Protocol-state coherence: a ReadShared node is on its owner's list
	// (the state says "the owner will invalidate me before any write").
	for idx, ns := range readShared {
		os := owners[idx]
		if len(os) == 0 {
			return fmt.Errorf("asvm: page %d read-shared on %v with no owner", idx, ns)
		}
		for _, n := range ns {
			if !os[0].slot(idx).readers.Contains(&os[0].arena, n) {
				return fmt.Errorf("asvm: page %d read-shared at node %d but absent from owner %d's reader list",
					idx, n, os[0].self())
			}
		}
	}

	for idx, hs := range holders {
		os := owners[idx]
		if len(os) == 0 {
			return fmt.Errorf("asvm: page %d resident on %d nodes with no owner", idx, len(hs))
		}
		owner := os[0]
		writers := 0
		for _, h := range hs {
			if h.pg.Lock >= vm.ProtWrite {
				writers++
				if h.in != owner {
					return fmt.Errorf("asvm: page %d write-held by non-owner node %d", idx, h.node)
				}
			}
			if h.in != owner && !owner.slot(idx).readers.Contains(&owner.arena, h.node) {
				return fmt.Errorf("asvm: page %d held by node %d unknown to owner %d",
					idx, h.node, owner.self())
			}
		}
		if writers > 0 && len(hs) > 1 {
			return fmt.Errorf("asvm: page %d has a writer and %d other copies", idx, len(hs)-1)
		}
	}

	// Home bookkeeping. With the home itself crashed there is nothing to
	// compare against: its grant ledger died with it, and the survivors'
	// safety properties above are all that crash-stop still promises.
	if info.Down[info.Home] {
		return nil
	}
	home := cluster.node(info.Home).instances[info.ID]
	var err error
	home.slots.each(func(idx vm.PageIdx, hs *pageSlot) bool {
		hasOwner := len(owners[idx]) > 0
		if hs.home.granted() && hs.home.atPager() {
			err = fmt.Errorf("asvm: page %d both granted and at pager", idx)
		} else if hs.home.granted() != hasOwner {
			err = fmt.Errorf("asvm: page %d home granted=%v but owner-exists=%v", idx, hs.home.granted(), hasOwner)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	for idx := range owners {
		if !home.slots.get(idx).home.granted() {
			return fmt.Errorf("asvm: page %d owned but home unaware", idx)
		}
	}
	return nil
}

// CheckPageInvariants validates the safety core of the protocol for one
// page mid-flight — it is sound at any quiesce point, not just at full
// drain. Liveness-flavoured properties (an owner exists, home bookkeeping
// agrees) are deliberately NOT checked here: a grant or transfer
// legitimately in flight leaves zero owners, or a home whose view lags.
// What can never happen, even transiently, once no instance is
// mid-operation on the page:
//
//  1. two owners (an ownership transfer hands over before the sender
//     forgets, but the sender stays busy until it has — so two owners with
//     every node's page at rest is a real protocol bug);
//  2. an owner not holding the page in its VM cache;
//  3. a writer that is not the owner, or a writer coexisting with copies;
//  4. a (non-owner) copy the owner does not know about;
//  5. protocol-state incoherence: an at-rest owner whose Owner/OwnerSole
//     split disagrees with its reader list, or a ReadShared node without
//     its copy or missing from the owner's reader list.
//
// If any instance still has the page in a busy state, the check vacuously
// passes — that instance's operation is mid-protocol and owns the page's
// consistency. Returns nil when the page is consistent.
func CheckPageInvariants(cluster Cluster, info *DomainInfo, idx vm.PageIdx) error {
	var owners []*Instance
	type holder struct {
		node mesh.NodeID
		pg   *vm.Page
		in   *Instance
	}
	var holders []holder
	var readShared []mesh.NodeID

	for _, nid := range info.Mapping {
		if info.Down[nid] {
			continue // crashed: its state died with it (crash-stop)
		}
		nd := cluster.node(nid)
		in := nd.instances[info.ID]
		if in == nil {
			return fmt.Errorf("asvm: node %d lost its instance of %v", nid, info.ID)
		}
		sl := in.slots.get(idx)
		if sl.state.Busy() {
			return nil // mid-operation: state legitimately transient
		}
		switch sl.state {
		case StOwner, StOwnerSole:
			owners = append(owners, in)
			if sl.state == StOwner && sl.readers.Len() == 0 {
				return fmt.Errorf("asvm: node %d page %d in state Owner with no readers", nid, idx)
			}
			if sl.state == StOwnerSole && sl.readers.Len() != 0 {
				return fmt.Errorf("asvm: node %d page %d in state OwnerSole with %d readers", nid, idx, sl.readers.Len())
			}
		case StReadShared:
			if !in.o.Resident(idx) {
				return fmt.Errorf("asvm: node %d page %d in state ReadShared without a copy", nid, idx)
			}
			readShared = append(readShared, nid)
		}
		if pg := in.o.Pages[idx]; pg != nil {
			holders = append(holders, holder{nid, pg, in})
		}
	}

	if len(owners) > 1 {
		ns := make([]mesh.NodeID, len(owners))
		for i, in := range owners {
			ns[i] = in.self()
		}
		return fmt.Errorf("asvm: page %d has %d owners: %v", idx, len(owners), ns)
	}
	var owner *Instance
	if len(owners) == 1 {
		owner = owners[0]
		if !owner.o.Resident(idx) {
			return fmt.Errorf("asvm: node %d owns page %d without holding it (owner invariant)", owner.self(), idx)
		}
	}

	writers := 0
	for _, h := range holders {
		if h.pg.Lock >= vm.ProtWrite {
			writers++
			if h.in != owner {
				return fmt.Errorf("asvm: page %d write-held by non-owner node %d", idx, h.node)
			}
		}
		if owner != nil && h.in != owner && !owner.slot(idx).readers.Contains(&owner.arena, h.node) {
			return fmt.Errorf("asvm: page %d held by node %d unknown to owner %d",
				idx, h.node, owner.self())
		}
	}
	if writers > 0 && len(holders) > 1 {
		return fmt.Errorf("asvm: page %d has a writer and %d other copies", idx, len(holders)-1)
	}
	if owner != nil {
		for _, n := range readShared {
			if !owner.slot(idx).readers.Contains(&owner.arena, n) {
				return fmt.Errorf("asvm: page %d read-shared at node %d but absent from owner %d's reader list",
					idx, n, owner.self())
			}
		}
	}
	return nil
}

// CheckInvariantsSampled is the scale-aware drain check for big meshes.
// The per-node local invariants — no outstanding faults, no dangling
// completions, no busy pages, no queued requests — are cheap (one pass
// over each node's slots) and run in full. The cross-node page invariants
// (single owner, reader-list coherence, writer exclusivity) are what the
// full sweep pays O(nodes·pages) plus map assembly for; here they run
// through CheckPageInvariants on a seeded sample of distinct pages, so a
// 1024-node drain check costs O(nodes·pages + sample·nodes). Home
// bookkeeping is deliberately left to the full sweep: its granted⇔owner
// comparison needs the global owner map. samplePages <= 0 or >= SizePages
// falls back to the full CheckInvariants, which small runs keep using.
func CheckInvariantsSampled(cluster Cluster, info *DomainInfo, samplePages int, seed uint64) error {
	if samplePages <= 0 || vm.PageIdx(samplePages) >= info.SizePages {
		return CheckInvariants(cluster, info)
	}
	for _, nid := range info.Mapping {
		if info.Down[nid] {
			continue
		}
		nd := cluster.node(nid)
		in := nd.instances[info.ID]
		if in == nil {
			return fmt.Errorf("asvm: node %d lost its instance of %v", nid, info.ID)
		}
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
		if err != nil {
			return err
		}
	}
	rng := sim.NewRNG(seed)
	seen := make(map[vm.PageIdx]bool, samplePages)
	for len(seen) < samplePages {
		idx := vm.PageIdx(rng.Intn(int(info.SizePages)))
		if seen[idx] {
			continue
		}
		seen[idx] = true
		if err := CheckPageInvariants(cluster, info, idx); err != nil {
			return err
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
