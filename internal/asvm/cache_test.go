package asvm

import (
	"testing"

	"asvm/internal/mesh"
	"asvm/internal/vm"
)

// scrubStatic runs the real peer-down scrub, Instance.forgetOwner, over a
// bare static cache.
func scrubStatic(s *fifoCache[staticEntry], dead mesh.NodeID) {
	in := &Instance{static: *s}
	in.forgetOwner(dead)
	*s = in.static
}

// TestStaticLRUGoldenEvictionOrder pins the static manager cache's exact
// replacement behaviour: insertion-order FIFO where a Put that refreshes an
// existing key does NOT move it in the order. The Config.StaticCacheSize
// knob sizes this cache, so the scale sweep's cache-sizing rows depend on
// this precise policy — a change here re-renders those rows.
func TestStaticLRUGoldenEvictionOrder(t *testing.T) {
	s := newFIFOCache[staticEntry](3)
	for _, idx := range []vm.PageIdx{10, 20, 30} {
		s.Put(idx, staticEntry{owner: 1})
	}
	// Refresh the oldest entry: value updates, FIFO position must not.
	s.Put(10, staticEntry{owner: 7})
	if e, ok := s.Get(10); !ok || e.owner != 7 {
		t.Fatalf("refresh did not update value: %+v %v", e, ok)
	}

	// Golden eviction sequence from state [10, 20, 30]: each new key evicts
	// the head in insertion order — 10 first (its refresh moved nothing),
	// then 20, then 30, then the newcomers in their own insertion order.
	steps := []struct {
		put   vm.PageIdx
		evict vm.PageIdx
	}{
		{40, 10},
		{50, 20},
		{60, 30},
		{70, 40},
	}
	for i, st := range steps {
		s.Put(st.put, staticEntry{owner: 2})
		if _, ok := s.Get(st.evict); ok {
			t.Fatalf("step %d: Put(%d) should have evicted %d (FIFO), but it survives", i, st.put, st.evict)
		}
		if _, ok := s.Get(st.put); !ok {
			t.Fatalf("step %d: Put(%d) not retrievable", i, st.put)
		}
		if len(s.m) != 3 {
			t.Fatalf("step %d: cache holds %d entries, want 3", i, len(s.m))
		}
	}
}

// TestStaticLRUMinCapacityAndDeleteOwner: the size knob clamps to 1, and
// the peer-down scrub drops owner hints for the dead node while keeping "paged"
// markers (the pager's copy does not die with an owner).
func TestStaticLRUMinCapacityAndDeleteOwner(t *testing.T) {
	s := newFIFOCache[staticEntry](0) // clamps to 1
	s.Put(1, staticEntry{owner: 3})
	s.Put(2, staticEntry{owner: 4})
	if _, ok := s.Get(1); ok {
		t.Fatal("capacity-1 cache kept two entries")
	}
	if _, ok := s.Get(2); !ok {
		t.Fatal("capacity-1 cache lost the newest entry")
	}

	s = newFIFOCache[staticEntry](4)
	s.Put(1, staticEntry{owner: 3})
	s.Put(2, staticEntry{owner: 5})
	s.Put(3, staticEntry{owner: 3, paged: true})
	scrubStatic(&s, 3)
	if _, ok := s.Get(1); ok {
		t.Fatal("owner hint for dead node 3 survived the scrub")
	}
	if _, ok := s.Get(2); !ok {
		t.Fatal("owner hint for live node 5 was scrubbed")
	}
	if e, ok := s.Get(3); !ok || !e.paged {
		t.Fatal("paged marker was scrubbed with the dead owner")
	}
}

// TestStaticCacheScrubKeepsReadmittedPage: a peer-down scrub must not leave
// a stale FIFO slot that later evicts a readmitted page early. Capacity 3:
// Put 1, Put 2, scrub 1's owner, Put 1, Put 3 holds three live keys, so
// nothing may be evicted — with a plain FIFO of keys, 1's first slot was
// still at the head and Put 3 evicted the readmitted 1.
func TestStaticCacheScrubKeepsReadmittedPage(t *testing.T) {
	s := newFIFOCache[staticEntry](3)
	s.Put(1, staticEntry{owner: 5})
	s.Put(2, staticEntry{owner: 6})
	scrubStatic(&s, 5)
	if len(s.m) != 1 {
		t.Fatalf("scrub left %d entries, want 1", len(s.m))
	}
	s.Put(1, staticEntry{owner: 7})
	s.Put(3, staticEntry{owner: 7})
	for _, idx := range []vm.PageIdx{1, 2, 3} {
		if _, ok := s.Get(idx); !ok {
			t.Fatalf("page %d evicted with only three live keys stored", idx)
		}
	}
	// The next newcomer evicts the oldest live key, 2 — not the readmitted 1.
	s.Put(4, staticEntry{owner: 7})
	if _, ok := s.Get(2); ok {
		t.Fatal("Put 4 did not evict the oldest live key 2")
	}
	if _, ok := s.Get(1); !ok {
		t.Fatal("Put 4 evicted the readmitted page 1")
	}
}
