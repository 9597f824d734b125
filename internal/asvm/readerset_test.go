package asvm

import (
	"slices"
	"testing"

	"asvm/internal/mesh"
	"asvm/internal/sim"
)

// TestReaderSetAgainstMapReference drives a readerSet and a
// map[mesh.NodeID]bool reference with the same random Add/Remove/Clear
// stream and checks they agree after every step — Len, Contains, Min, and
// the full ascending iteration. The ID range straddles the inline→bitset
// promotion point so both representations (and the transition) are covered.
func TestReaderSetAgainstMapReference(t *testing.T) {
	check := func(t *testing.T, step int, s *readerSet, a *readerArena, ref map[mesh.NodeID]bool, maxID int) {
		t.Helper()
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref))
		}
		for id := mesh.NodeID(0); id <= mesh.NodeID(maxID); id++ {
			if s.Contains(a, id) != ref[id] {
				t.Fatalf("step %d: Contains(%d) = %v, want %v", step, id, s.Contains(a, id), ref[id])
			}
		}
		want := make([]mesh.NodeID, 0, len(ref))
		for id := mesh.NodeID(0); id <= mesh.NodeID(maxID); id++ {
			if ref[id] {
				want = append(want, id)
			}
		}
		got := s.AppendTo(a, nil)
		if len(got) != len(want) {
			t.Fatalf("step %d: AppendTo = %v, want %v", step, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: AppendTo = %v, want %v (ascending)", step, got, want)
			}
		}
		min, ok := s.Min(a)
		if len(want) == 0 {
			if ok {
				t.Fatalf("step %d: Min = %d on empty set", step, min)
			}
		} else if !ok || min != want[0] {
			t.Fatalf("step %d: Min = %d,%v, want %d", step, min, ok, want[0])
		}
	}

	for _, tc := range []struct {
		name  string
		maxID int
		seed  uint64
	}{
		{"inline-only", 3, 11}, // ≤4 distinct IDs: never promotes
		{"promoting", 9, 12},   // crosses readerInlineMax
		{"wide", 200, 13},      // multiple bitset words, sparse population
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := sim.NewRNG(tc.seed)
			var s readerSet
			var a readerArena
			ref := map[mesh.NodeID]bool{}
			for step := 0; step < 3000; step++ {
				id := mesh.NodeID(r.Intn(tc.maxID + 1))
				switch op := r.Intn(10); {
				case op < 5:
					s.Add(&a, id)
					ref[id] = true
				case op < 9:
					s.Remove(&a, id)
					delete(ref, id)
				default:
					s.Clear(&a)
					ref = map[mesh.NodeID]bool{}
				}
				check(t, step, &s, &a, ref, tc.maxID)
			}
		})
	}
}

// TestReaderSetPromotionKeepsOrder pins the inline→bitset transition
// directly: adds in descending order still iterate ascending before,
// across, and after the promotion on the fifth Add, and Clear keeps the
// promoted storage (no demotion, no allocation on refill).
func TestReaderSetPromotionKeepsOrder(t *testing.T) {
	var s readerSet
	var a readerArena
	for _, id := range []mesh.NodeID{80, 60, 40, 20} {
		s.Add(&a, id)
	}
	if s.words != 0 {
		t.Fatal("set promoted before the fifth reader")
	}
	got := s.AppendTo(&a, nil)
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("inline iteration not ascending: %v", got)
		}
	}
	s.Add(&a, 70) // fifth distinct reader: promotes
	if s.words == 0 {
		t.Fatal("fifth reader did not promote to bitset")
	}
	want := []mesh.NodeID{20, 40, 60, 70, 80}
	got = s.AppendTo(&a, nil)
	if len(got) != len(want) {
		t.Fatalf("after promotion: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after promotion: %v, want %v", got, want)
		}
	}
	s.Clear(&a)
	if s.Len() != 0 || s.words == 0 {
		t.Fatalf("Clear must empty the set but keep the bitset: n=%d words=%d", s.n, s.words)
	}
	s.Add(&a, 3)
	if min, ok := s.Min(&a); !ok || min != 3 {
		t.Fatalf("refill after Clear: Min = %d,%v", min, ok)
	}
}

// TestReaderSetIdempotentAdd: duplicate Adds never inflate Len, inline or
// promoted.
func TestReaderSetIdempotentAdd(t *testing.T) {
	var s readerSet
	var a readerArena
	for i := 0; i < 3; i++ {
		s.Add(&a, 2)
	}
	if s.Len() != 1 {
		t.Fatalf("inline duplicate Adds: Len = %d", s.Len())
	}
	for _, id := range []mesh.NodeID{5, 9, 1, 7} {
		s.Add(&a, id)
	}
	for i := 0; i < 3; i++ {
		s.Add(&a, 9)
	}
	if s.Len() != 5 {
		t.Fatalf("promoted duplicate Adds: Len = %d", s.Len())
	}
}

// TestReaderSetRunCoversDomain pins the arena layout: a promotion reserves
// a run covering the largest node ID in the domain's mapping, so adding
// any mapped node later leaves the run in place; only a node with a
// larger ID joining the domain moves the set, members intact. Two sets'
// runs never overlap.
func TestReaderSetRunCoversDomain(t *testing.T) {
	info := &DomainInfo{Mapping: []mesh.NodeID{3, 130, 7, 64, 1, 2, 200}}
	a := readerArena{info: info}
	var s, other readerSet
	for _, id := range []mesh.NodeID{1, 2, 3, 7, 64} {
		s.Add(&a, id)
		other.Add(&a, id+1)
	}
	if s.words != 200>>6+1 {
		t.Fatalf("promoted run is %d words, want %d (node 200 is mapped)", s.words, 200>>6+1)
	}
	off, arena := s.off, len(a.w)
	s.Add(&a, 200)
	s.Add(&a, 130)
	if s.off != off || len(a.w) != arena {
		t.Fatalf("adding mapped nodes moved the run: off %d→%d, arena %d→%d words", off, s.off, arena, len(a.w))
	}
	info.Mapping = append(info.Mapping, 300) // a node joins the domain
	s.Add(&a, 300)
	if s.off == off || s.words != 300>>6+1 {
		t.Fatalf("node 300 did not relocate the set: off %d, %d words", s.off, s.words)
	}
	want := []mesh.NodeID{1, 2, 3, 7, 64, 130, 200, 300}
	if got := s.AppendTo(&a, nil); !slices.Equal(got, want) {
		t.Fatalf("after relocation: %v, want %v", got, want)
	}
	if got := other.AppendTo(&a, nil); !slices.Equal(got, []mesh.NodeID{2, 3, 4, 8, 65}) {
		t.Fatalf("second set disturbed: %v", got)
	}
}
