package asvm

import (
	"testing"
	"testing/quick"

	"asvm/internal/mesh"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

func TestHintCacheBasics(t *testing.T) {
	h := newFIFOCache[mesh.NodeID](4)
	if _, ok := h.Get(1); ok {
		t.Fatal("empty cache hit")
	}
	h.Put(1, 10)
	h.Put(2, 20)
	if n, ok := h.Get(1); !ok || n != 10 {
		t.Fatalf("Get(1) = %v/%v", n, ok)
	}
	h.Put(1, 11) // update in place
	if n, _ := h.Get(1); n != 11 {
		t.Fatalf("update lost: %v", n)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
	h.Delete(1)
	if _, ok := h.Get(1); ok {
		t.Fatal("deleted entry still present")
	}
}

func TestHintCacheEvictsOldest(t *testing.T) {
	h := newFIFOCache[mesh.NodeID](3)
	for i := 0; i < 5; i++ {
		h.Put(vm.PageIdx(i), mesh.NodeID(i))
	}
	if _, ok := h.Get(0); ok {
		t.Fatal("oldest entry survived")
	}
	if _, ok := h.Get(1); ok {
		t.Fatal("second-oldest entry survived")
	}
	for i := 2; i < 5; i++ {
		if _, ok := h.Get(vm.PageIdx(i)); !ok {
			t.Fatalf("recent entry %d evicted", i)
		}
	}
}

func TestHintCacheDeleteDoesNotStarveLiveHints(t *testing.T) {
	// Regression: Delete used to leave a dead slot in the FIFO order, so a
	// later eviction could land on the dead slot's neighbor — evicting a
	// live hint while the cache was not even full.
	h := newFIFOCache[mesh.NodeID](3)
	h.Put(1, 10)
	h.Put(2, 20)
	h.Delete(2)
	h.Put(3, 30)
	h.Put(4, 40) // fills to capacity: {1, 3, 4}
	if _, ok := h.Get(1); !ok {
		t.Fatal("live hint 1 evicted while the cache had a free slot")
	}
	h.Put(5, 50) // over capacity now: must evict 1, the oldest live hint
	if _, ok := h.Get(1); ok {
		t.Fatal("oldest live hint survived a genuine eviction")
	}
	for _, idx := range []vm.PageIdx{3, 4, 5} {
		if _, ok := h.Get(idx); !ok {
			t.Fatalf("hint %d lost", idx)
		}
	}
}

func TestHintCacheReadmittedPageGetsFreshSlot(t *testing.T) {
	// Delete then re-Put must renew the page's FIFO position: the old slot
	// is a tombstone and must not evict the readmitted entry early.
	h := newFIFOCache[mesh.NodeID](2)
	h.Put(1, 10)
	h.Put(2, 20)
	h.Delete(1)
	h.Put(1, 11) // readmitted: now younger than 2
	h.Put(3, 30) // evicts 2, not the readmitted 1
	if _, ok := h.Get(2); ok {
		t.Fatal("page 2 survived; the readmitted page was evicted instead")
	}
	if n, ok := h.Get(1); !ok || n != 11 {
		t.Fatalf("readmitted hint lost: %v/%v", n, ok)
	}
}

func TestHintCacheTombstoneCompaction(t *testing.T) {
	// Hammer Delete/Put cycles: the order slice must stay bounded by
	// live + max rather than growing with every churn.
	const cap = 4
	h := newFIFOCache[mesh.NodeID](cap)
	for i := 0; i < 1000; i++ {
		idx := vm.PageIdx(i % 8)
		h.Put(idx, mesh.NodeID(i%5))
		if i%3 == 0 {
			h.Delete(idx)
		}
	}
	if h.Len() > cap {
		t.Fatalf("live entries %d exceed capacity %d", h.Len(), cap)
	}
	if len(h.order) > h.Len()+cap+1 {
		t.Fatalf("order grew unboundedly: %d slots for %d live entries", len(h.order), h.Len())
	}
}

func TestHintCacheNeverExceedsCapacity(t *testing.T) {
	check := func(seed uint64) bool {
		const cap = 8
		h := newFIFOCache[mesh.NodeID](cap)
		r := sim.NewRNG(seed)
		for i := 0; i < 200; i++ {
			h.Put(vm.PageIdx(r.Intn(64)), mesh.NodeID(r.Intn(16)))
			if h.Len() > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticLRUBasics(t *testing.T) {
	s := newFIFOCache[staticEntry](2)
	s.Put(1, staticEntry{owner: 5})
	s.Put(2, staticEntry{paged: true})
	if e, ok := s.Get(1); !ok || e.owner != 5 {
		t.Fatalf("Get(1) = %+v/%v", e, ok)
	}
	if e, ok := s.Get(2); !ok || !e.paged {
		t.Fatalf("Get(2) = %+v/%v", e, ok)
	}
	s.Put(3, staticEntry{owner: 7}) // evicts page 1
	if _, ok := s.Get(1); ok {
		t.Fatal("LRU entry survived over capacity")
	}
}

func TestMappingRingHelpers(t *testing.T) {
	d := NewDomain(vm.ObjID{}, 1, 3, []mesh.NodeID{3, 7, 11}, DefaultConfig())
	if d.staticNode(0) != 3 || d.staticNode(1) != 7 || d.staticNode(5) != 11 {
		t.Fatal("staticNode hashing wrong")
	}
	if d.mappingIndex(7) != 1 || d.mappingIndex(99) != -1 {
		t.Fatal("mappingIndex wrong")
	}
	if d.ringAfter(d.mappingIndex(11)) != 3 || d.ringAfter(d.mappingIndex(3)) != 7 {
		t.Fatal("ringAfter wrong")
	}
}

// TestHintCacheDeleteOwnerChurn drives the cache through a long random mix
// of Put / Delete / DeleteOwner (the peer-down eviction path) against a
// reference model, checking after every operation that lookups, the live
// count, the capacity bound, and DeleteOwner's eviction count all agree —
// and that no hint pointing at a downed node ever survives the eviction.
// This is the workload shape a crash sweep produces: hints churn steadily
// while whole owners vanish at once, exercising the tombstone bookkeeping
// far harder than single deletes.
func TestHintCacheDeleteOwnerChurn(t *testing.T) {
	const (
		capacity = 16
		pages    = 48
		nodes    = 5
		rounds   = 4000
	)
	h := newFIFOCache[mesh.NodeID](capacity)
	model := make(map[vm.PageIdx]mesh.NodeID)
	var fifo []vm.PageIdx // insertion order of live model entries
	modelDelete := func(idx vm.PageIdx) {
		delete(model, idx)
		for i, p := range fifo {
			if p == idx {
				fifo = append(fifo[:i], fifo[i+1:]...)
				break
			}
		}
	}
	rng := sim.NewRNG(42)
	for round := 0; round < rounds; round++ {
		switch op := rng.Intn(10); {
		case op < 6: // Put dominates, as in real forwarding traffic
			idx := vm.PageIdx(rng.Intn(pages))
			n := mesh.NodeID(rng.Intn(nodes))
			h.Put(idx, n)
			if _, exists := model[idx]; exists {
				model[idx] = n // update in place keeps its slot
				break
			}
			if len(model) >= capacity {
				modelDelete(fifo[0]) // evict oldest live
			}
			model[idx] = n
			fifo = append(fifo, idx)
		case op < 8: // single delete (lazy Nack-driven eviction)
			idx := vm.PageIdx(rng.Intn(pages))
			h.Delete(idx)
			modelDelete(idx)
		default: // a node goes down: every hint at it must die at once
			n := mesh.NodeID(rng.Intn(nodes))
			want := 0
			for idx, owner := range model {
				if owner == n {
					want++
					modelDelete(idx)
				}
			}
			if got := h.DeleteFunc(func(o mesh.NodeID) bool { return o == n }); got != want {
				t.Fatalf("round %d: DeleteFunc(owner %d) evicted %d, want %d", round, n, got, want)
			}
			for idx := vm.PageIdx(0); idx < pages; idx++ {
				if owner, ok := h.Get(idx); ok && owner == n {
					t.Fatalf("round %d: hint p%d -> downed node %d survived", round, idx, n)
				}
			}
		}
		if h.Len() != len(model) {
			t.Fatalf("round %d: Len=%d model=%d", round, h.Len(), len(model))
		}
		if h.Len() > capacity {
			t.Fatalf("round %d: capacity exceeded: %d", round, h.Len())
		}
		for idx, wantN := range model {
			if n, ok := h.Get(idx); !ok || n != wantN {
				t.Fatalf("round %d: Get(%d) = %v/%v, model %v", round, idx, n, ok, wantN)
			}
		}
		// The slot list must stay O(live + capacity) under churn — the
		// compaction invariant that keeps a long-lived node's cache from
		// growing without bound.
		if len(h.order) > 2*capacity+1 {
			t.Fatalf("round %d: order grew to %d slots", round, len(h.order))
		}
	}
}
