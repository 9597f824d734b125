package asvm

import (
	"testing"

	"asvm/internal/sim"
	"asvm/internal/vm"
)

// TestFreshGrantsStayAtColdStartPeak: a home serving fresh grants to a
// second node takes each grant box from the free list its grantee returned
// the last one to, because both nodes run on one engine and share its
// pools. Once the first faults have filled the pools, a thousand more
// grants allocate no box. (With a pool per node, the home's grant pool
// missed on every grant while the grantee's grew without bound.)
func TestFreshGrantsStayAtColdStartPeak(t *testing.T) {
	c := newCluster(t, 2, 0, DefaultConfig())
	tasks := c.shared(t, 1010, DefaultConfig())
	pools := c.asvms[0].pools
	if c.asvms[1].pools != pools {
		t.Fatal("two nodes on one engine have separate pools")
	}
	write := func(from, to int) {
		c.run(t, func(p *sim.Proc) error {
			for i := from; i < to; i++ {
				if err := tasks[1].WriteU64(p, vm.Addr(i*vm.PageSize), uint64(i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	write(0, 10)
	peak := pools.misses()
	write(10, 1010)
	if fresh := c.asvms[0].Ctr.V[sim.CtrHomeFreshGrants]; fresh != 1010 {
		t.Fatalf("home made %d fresh grants, want 1010", fresh)
	}
	if got := pools.misses(); got != peak {
		t.Errorf("pool misses grew from %d to %d over 1000 fresh grants", peak, got)
	}
}

// misses counts the boxes the pools had to allocate.
func (p *msgPools) misses() uint64 {
	return p.req.Misses + p.grant.Misses + p.inval.Misses + p.iack.Misses + p.oupd.Misses
}
