package asvm

import (
	"testing"
	"testing/quick"

	"asvm/internal/sim"
	"asvm/internal/vm"
)

func TestInvariantsHoldAfterSimpleRun(t *testing.T) {
	c := newCluster(t, 4, 0, DefaultConfig())
	tasks := c.shared(t, 8, DefaultConfig())
	info := c.asvms[0].Instance(sharedID).Info()
	c.run(t, func(p *sim.Proc) error {
		for i := 0; i < 8; i++ {
			if err := tasks[i%4].WriteU64(p, vm.Addr(i*vm.PageSize), uint64(i)); err != nil {
				return err
			}
			if _, err := tasks[(i+1)%4].ReadU64(p, vm.Addr(i*vm.PageSize)); err != nil {
				return err
			}
		}
		return nil
	})
	if err := CheckInvariants(c.cl(), info); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsDetectDoubleOwner(t *testing.T) {
	c := newCluster(t, 2, 0, DefaultConfig())
	tasks := c.shared(t, 2, DefaultConfig())
	info := c.asvms[0].Instance(sharedID).Info()
	c.run(t, func(p *sim.Proc) error {
		return tasks[0].WriteU64(p, 0, 1)
	})
	// Corrupt: force a second owner.
	in1 := c.asvms[1].Instance(sharedID)
	c.kerns[1].InstallPage(in1.o, 0, nil, vm.ProtWrite)
	in1.installOwner(0, nil, 0)
	if err := CheckInvariants(c.cl(), info); err == nil {
		t.Fatal("double owner not detected")
	}
}

// corruptibleCluster runs one write so node 0 owns page 0, then hands the
// drained cluster to corrupt before checking the invariants, which must fail.
func corruptibleCluster(t *testing.T, corrupt func(c *cluster)) error {
	t.Helper()
	c := newCluster(t, 2, 0, DefaultConfig())
	tasks := c.shared(t, 2, DefaultConfig())
	info := c.asvms[0].Instance(sharedID).Info()
	c.run(t, func(p *sim.Proc) error {
		if err := tasks[0].WriteU64(p, 0, 1); err != nil {
			return err
		}
		_, err := tasks[1].ReadU64(p, 0)
		return err
	})
	if err := CheckInvariants(c.cl(), info); err != nil {
		t.Fatalf("healthy cluster failed invariants: %v", err)
	}
	corrupt(c)
	return CheckInvariants(c.cl(), info)
}

func TestInvariantsDetectOwnerWithoutPage(t *testing.T) {
	err := corruptibleCluster(t, func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		c.kerns[0].RemovePage(in0.o, 0)
	})
	if err == nil {
		t.Fatal("owner without a resident page not detected")
	}
}

func TestInvariantsDetectUnknownReader(t *testing.T) {
	err := corruptibleCluster(t, func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		in0.slot(0).readers.Remove(&in0.arena, 1)
	})
	if err == nil {
		t.Fatal("reader unknown to the owner not detected")
	}
}

func TestInvariantsDetectHomeGrantMismatch(t *testing.T) {
	err := corruptibleCluster(t, func(c *cluster) {
		home := c.asvms[0].Instance(sharedID)
		home.slot(0).home &^= homeGranted
	})
	if err == nil {
		t.Fatal("home/granted mismatch not detected")
	}
}

func TestInvariantsDetectDanglingBusy(t *testing.T) {
	err := corruptibleCluster(t, func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		in0.slot(0).state = StServing
	})
	if err == nil {
		t.Fatal("dangling busy state not detected")
	}
}

// The protocol-state coherence checks added with the explicit state
// machine: each corruption makes the PageProtoState lie about the data it
// summarizes, and CheckInvariants must call it out.

func TestInvariantsDetectOwnerStateWithoutReaders(t *testing.T) {
	// After tasks[0] writes and tasks[1] reads, node 0 is in StOwner with
	// node 1 on its reader list. Empty the list without changing state:
	// StOwner now claims readers that do not exist. (The unknown-reader
	// check also fires for node 1's copy, so corrupt the state first.)
	err := corruptibleCluster(t, func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		in0.slot(0).state = StOwner
		in0.slot(0).readers.Clear(&in0.arena)
		// Silence the holder-based check so the state-coherence check is
		// what must catch this: drop node 1's copy and its ReadShared state.
		in1 := c.asvms[1].Instance(sharedID)
		c.kerns[1].RemovePage(in1.o, 0)
		*in1.slot(0) = pageSlot{}
	})
	if err == nil {
		t.Fatal("Owner state with empty reader list not detected")
	}
}

func TestInvariantsDetectOwnerSoleStateWithReaders(t *testing.T) {
	err := corruptibleCluster(t, func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		in0.slot(0).state = StOwnerSole
	})
	if err == nil {
		t.Fatal("OwnerSole state with readers not detected")
	}
}

func TestInvariantsDetectReadSharedWithoutCopy(t *testing.T) {
	err := corruptibleCluster(t, func(c *cluster) {
		in1 := c.asvms[1].Instance(sharedID)
		c.kerns[1].RemovePage(in1.o, 0)
	})
	if err == nil {
		t.Fatal("ReadShared state without a resident copy not detected")
	}
}

func TestInvariantsDetectReadSharedOffOwnerList(t *testing.T) {
	// Drop node 1 from the owner's reader list and fix up the owner's own
	// Owner/OwnerSole split so only node 1's surviving ReadShared state
	// disagrees: the state-coherence check (which runs before the
	// holder-based checks) must flag it.
	err := corruptibleCluster(t, func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		in0.slot(0).readers.Remove(&in0.arena, 1)
		in0.slot(0).state = StOwnerSole
	})
	if err == nil {
		t.Fatal("ReadShared node missing from owner's reader list not detected")
	}
}

// TestInvariantsUnderRandomConcurrentLoad drives random concurrent
// read/write/eviction activity from every node, drains the simulation, and
// requires the paper's global invariants to hold — across seeds.
func TestInvariantsUnderRandomConcurrentLoad(t *testing.T) {
	check := func(seed uint64) bool {
		cfg := DefaultConfig()
		cfg.DynamicCacheSize = 8 // small caches: exercise fallbacks
		cfg.StaticCacheSize = 8
		c := newCluster(t, 5, 48, cfg) // bounded memory: exercise internode paging
		tasks := c.shared(t, 24, cfg)
		info := c.asvms[0].Instance(sharedID).Info()
		rng := sim.NewRNG(seed)
		ok := true
		for n := 0; n < 5; n++ {
			n := n
			order := rng.Perm(24)
			writes := rng.Uint64()
			c.eng.Spawn("stress", func(p *sim.Proc) {
				for round := 0; round < 3; round++ {
					for _, pg := range order {
						want := vm.ProtRead
						if (writes>>(uint(pg)%64))&1 == 1 {
							want = vm.ProtWrite
						}
						if _, err := tasks[n].Touch(p, vm.Addr(pg*vm.PageSize), want); err != nil {
							t.Logf("seed %d node %d: %v", seed, n, err)
							ok = false
							return
						}
					}
				}
			})
		}
		c.eng.Run()
		if !ok {
			return false
		}
		if c.eng.LiveProcs() != 0 {
			t.Logf("seed %d: %d procs leaked", seed, c.eng.LiveProcs())
			return false
		}
		if err := CheckInvariants(c.cl(), info); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
