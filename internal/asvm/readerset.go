package asvm

import (
	"fmt"
	"math/bits"

	"asvm/internal/mesh"
)

// readerInlineMax is the reader count up to which a readerSet stays in its
// inline array. Paper-scale sharing rarely exceeds a handful of readers per
// page, so the common case touches no arena.
const readerInlineMax = 4

// readerSet is the owner-side reader list: the set of nodes holding a read
// copy of a page. Its iteration order is ascending NodeID *by
// construction* — no sort calls, and no map-order hazard on any path that
// walks the readers (invalidation rounds, eviction's reader probe, crash
// scrubs all act in ascending order, as the determinism contract requires).
//
// Up to readerInlineMax readers live in a sorted inline array; the fifth
// Add promotes the set to a bitset indexed by NodeID, a run of words in
// the instance's readerArena named by offset and length, so the set holds
// no pointer. A promoted set never demotes: Clear zeroes its run in place,
// so a slot that once saw wide sharing keeps its bitset across ownership
// episodes and steady-state rounds allocate nothing. The zero value is an
// empty inline set.
type readerSet struct {
	n      int32
	off    uint32 // promoted: the bitset's first word in the arena
	words  uint32 // promoted: the bitset's length; 0 while inline
	inline [readerInlineMax]int32
}

// readerArena holds one instance's promoted bitsets. A promotion reserves
// a run covering every node of the domain, so a set relocates only if a
// node with a larger ID joins the domain later.
type readerArena struct {
	w    []uint64
	info *DomainInfo // nil sizes runs by the set's own IDs
}

// run returns a promoted set's bitset.
func (s *readerSet) run(a *readerArena) []uint64 {
	return a.w[s.off : s.off+s.words]
}

// Len returns the reader count.
func (s *readerSet) Len() int { return int(s.n) }

// Contains reports membership.
func (s *readerSet) Contains(a *readerArena, id mesh.NodeID) bool {
	if s.words != 0 {
		w := int(id) >> 6
		return w >= 0 && w < int(s.words) && a.w[int(s.off)+w]&(1<<(uint(id)&63)) != 0
	}
	for i := int32(0); i < s.n; i++ {
		if s.inline[i] == int32(id) {
			return true
		}
	}
	return false
}

// Add inserts a reader (idempotent).
func (s *readerSet) Add(a *readerArena, id mesh.NodeID) {
	if id < 0 || mesh.NodeID(int32(id)) != id {
		panic(fmt.Sprintf("asvm: reader set cannot hold node %d", id))
	}
	if s.words == 0 {
		i := int32(0)
		for i < s.n && s.inline[i] < int32(id) {
			i++
		}
		if i < s.n && s.inline[i] == int32(id) {
			return
		}
		if s.n < readerInlineMax {
			copy(s.inline[i+1:s.n+1], s.inline[i:s.n])
			s.inline[i] = int32(id)
			s.n++
			return
		}
		s.spill(a, id)
	}
	w, b := int(id)>>6, uint64(1)<<(uint(id)&63)
	if w >= int(s.words) {
		s.spill(a, id)
	}
	if word := &a.w[int(s.off)+w]; *word&b == 0 {
		*word |= b
		s.n++
	}
}

// spill moves the set's members into a fresh arena run wide enough for id
// and every node of the domain: the fifth reader's promotion, or the
// relocation of a run a newly joined node outgrew.
func (s *readerSet) spill(a *readerArena, id mesh.NodeID) {
	top := int32(id)
	if s.words == 0 {
		for _, r := range s.inline[:s.n] {
			top = max(top, r)
		}
	}
	if a.info != nil {
		for _, m := range a.info.Mapping {
			top = max(top, int32(m))
		}
	}
	off, words := len(a.w), int(top>>6+1)
	a.w = append(a.w, make([]uint64, words)...)
	if s.words != 0 {
		copy(a.w[off:], s.run(a))
	} else {
		for _, r := range s.inline[:s.n] {
			a.w[off+int(r>>6)] |= 1 << (uint(r) & 63)
		}
	}
	s.off, s.words = uint32(off), uint32(words)
}

// Remove deletes a reader if present.
func (s *readerSet) Remove(a *readerArena, id mesh.NodeID) {
	if s.words != 0 {
		w, b := int(id)>>6, uint64(1)<<(uint(id)&63)
		if w >= 0 && w < int(s.words) && a.w[int(s.off)+w]&b != 0 {
			a.w[int(s.off)+w] &^= b
			s.n--
		}
		return
	}
	for i := int32(0); i < s.n; i++ {
		if s.inline[i] == int32(id) {
			copy(s.inline[i:], s.inline[i+1:s.n])
			s.n--
			return
		}
	}
}

// Clear empties the set, keeping a promoted set's run.
func (s *readerSet) Clear(a *readerArena) {
	s.n = 0
	if s.words != 0 {
		clear(s.run(a))
	}
}

// Min returns the smallest reader, or (-1, false) when empty.
func (s *readerSet) Min(a *readerArena) (mesh.NodeID, bool) {
	if s.n == 0 {
		return -1, false
	}
	if s.words == 0 {
		return mesh.NodeID(s.inline[0]), true
	}
	for w, word := range s.run(a) {
		if word != 0 {
			return mesh.NodeID(w<<6 + bits.TrailingZeros64(word)), true
		}
	}
	return -1, false
}

// AppendTo appends the readers to dst in ascending NodeID order.
func (s *readerSet) AppendTo(a *readerArena, dst []mesh.NodeID) []mesh.NodeID {
	if s.words == 0 {
		for _, r := range s.inline[:s.n] {
			dst = append(dst, mesh.NodeID(r))
		}
		return dst
	}
	for w, word := range s.run(a) {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, mesh.NodeID(w<<6+b))
			word &^= 1 << uint(b)
		}
	}
	return dst
}
