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

// plant is one corruption of a drained two-node cluster in which node 0
// wrote page 0 and, if read, node 1 then read it.
type plant struct {
	read    bool
	safety  bool // a mid-flight rule: CheckPageInvariants must catch it too
	corrupt func(c *cluster)
}

// detectPlant checks the healthy cluster passes every entry point of the
// checker, applies the plant, and requires each entry point that applies
// to report it: the drain check, its bench-facing alias, and (for safety
// plants) the mid-flight check of page 0.
func detectPlant(t *testing.T, pl plant) {
	t.Helper()
	c := newCluster(t, 2, 0, DefaultConfig())
	tasks := c.shared(t, 2, DefaultConfig())
	info := c.asvms[0].Instance(sharedID).Info()
	c.run(t, func(p *sim.Proc) error {
		if err := tasks[0].WriteU64(p, 0, 1); err != nil || !pl.read {
			return err
		}
		_, err := tasks[1].ReadU64(p, 0)
		return err
	})
	checks := []struct {
		name string
		fn   func() error
	}{
		{"CheckInvariants", func() error { return CheckInvariants(c.cl(), info) }},
		{"CheckInvariantsSampled", func() error { return CheckInvariantsSampled(c.cl(), info, 1, 1) }},
		{"CheckPageInvariants", func() error { return CheckPageInvariants(c.cl(), info, 0) }},
	}
	for _, ch := range checks {
		if err := ch.fn(); err != nil {
			t.Fatalf("healthy cluster failed %s: %v", ch.name, err)
		}
	}
	pl.corrupt(c)
	if !pl.safety {
		checks = checks[:2]
	}
	for _, ch := range checks {
		if err := ch.fn(); err == nil {
			t.Errorf("%s missed the plant", ch.name)
		}
	}
}

func TestInvariantsDetectDoubleOwner(t *testing.T) {
	detectPlant(t, plant{safety: true, corrupt: func(c *cluster) {
		in1 := c.asvms[1].Instance(sharedID)
		c.kerns[1].InstallPage(in1.o, 0, nil, vm.ProtWrite)
		in1.installOwner(0, nil, 0)
	}})
}

func TestInvariantsDetectOwnerWithoutPage(t *testing.T) {
	detectPlant(t, plant{read: true, safety: true, corrupt: func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		c.kerns[0].RemovePage(in0.o, 0)
	}})
}

func TestInvariantsDetectUnknownReader(t *testing.T) {
	detectPlant(t, plant{read: true, safety: true, corrupt: func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		in0.slot(0).readers.Remove(&in0.arena, 1)
	}})
}

// A home that forgot its grant: only the drain check compares the home's
// ledger, so CheckInvariantsSampled must be the full check to see it.
func TestInvariantsDetectHomeGrantMismatch(t *testing.T) {
	detectPlant(t, plant{read: true, corrupt: func(c *cluster) {
		home := c.asvms[0].Instance(sharedID)
		home.slot(0).home &^= homeGranted
	}})
}

func TestInvariantsDetectDanglingBusy(t *testing.T) {
	detectPlant(t, plant{read: true, corrupt: func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		in0.slot(0).state = StServing
	}})
}

// The protocol-state coherence plants: each makes the PageProtoState lie
// about the data it summarizes.

func TestInvariantsDetectOwnerStateWithoutReaders(t *testing.T) {
	// After tasks[0] writes and tasks[1] reads, node 0 is in StOwner with
	// node 1 on its reader list. Empty the list without changing state:
	// StOwner now claims readers that do not exist. Node 1's copy and its
	// ReadShared state go too, so no holder-based rule fires instead.
	detectPlant(t, plant{read: true, safety: true, corrupt: func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		in0.slot(0).state = StOwner
		in0.slot(0).readers.Clear(&in0.arena)
		in1 := c.asvms[1].Instance(sharedID)
		c.kerns[1].RemovePage(in1.o, 0)
		*in1.slot(0) = pageSlot{}
	}})
}

func TestInvariantsDetectOwnerSoleStateWithReaders(t *testing.T) {
	detectPlant(t, plant{read: true, safety: true, corrupt: func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		in0.slot(0).state = StOwnerSole
	}})
}

func TestInvariantsDetectReadSharedWithoutCopy(t *testing.T) {
	detectPlant(t, plant{read: true, safety: true, corrupt: func(c *cluster) {
		in1 := c.asvms[1].Instance(sharedID)
		c.kerns[1].RemovePage(in1.o, 0)
	}})
}

func TestInvariantsDetectReadSharedOffOwnerList(t *testing.T) {
	// Drop node 1 from the owner's reader list and fix up the owner's own
	// Owner/OwnerSole split so only node 1's surviving ReadShared copy
	// disagrees with the owner.
	detectPlant(t, plant{read: true, safety: true, corrupt: func(c *cluster) {
		in0 := c.asvms[0].Instance(sharedID)
		in0.slot(0).readers.Remove(&in0.arena, 1)
		in0.slot(0).state = StOwnerSole
	}})
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
