package machine

import (
	"testing"

	"asvm/internal/sim"
	"asvm/internal/vm"
)

func testParams(n int, sys System) Params {
	p := DefaultParams(n)
	p.System = sys
	p.TrackData = true
	return p
}

func TestClusterAssembly(t *testing.T) {
	for _, sys := range []System{SysASVM, SysXMM} {
		c := New(testParams(8, sys))
		if len(c.Kerns) != 8 || len(c.HW) != 8 {
			t.Fatalf("%v: bad cluster size", sys)
		}
		if c.HW[0].Disk == nil {
			t.Fatalf("%v: node 0 should be an I/O node", sys)
		}
		if c.HW[1].Disk != nil {
			t.Fatalf("%v: node 1 should not have a disk", sys)
		}
		if sys == SysASVM && len(c.ASVMs) != 8 {
			t.Fatal("missing ASVM runtimes")
		}
		if sys == SysXMM && len(c.XMMs) != 8 {
			t.Fatal("missing XMM runtimes")
		}
	}
}

func TestUserPages(t *testing.T) {
	p := DefaultParams(4)
	p.MemMB = 16
	// 16 - 7 = 9 MB -> 1152 8K pages (the paper: "about 9 MB ... available
	// for user applications" on a 16 MB node).
	if got := p.UserPages(); got != 1152 {
		t.Fatalf("UserPages = %d, want 1152", got)
	}
	p.MemMB = 0
	if p.UserPages() != 0 {
		t.Fatal("unlimited memory should report 0")
	}
}

func TestSharedRegionBothSystems(t *testing.T) {
	for _, sys := range []System{SysASVM, SysXMM} {
		c := New(testParams(4, sys))
		r := c.NewSharedRegion("r", 8, []int{0, 1, 2, 3})
		t0, err := c.TaskOn(0, "t0", r, 0)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := c.TaskOn(2, "t2", r, 0)
		if err != nil {
			t.Fatal(err)
		}
		var gotV uint64
		c.Spawn("test", func(p *sim.Proc) {
			if err := t0.WriteU64(p, 0, 123); err != nil {
				t.Error(err)
				return
			}
			v, err := t2.ReadU64(p, 0)
			if err != nil {
				t.Error(err)
				return
			}
			gotV = v
		})
		c.Run()
		if gotV != 123 {
			t.Fatalf("%v: read %d, want 123", sys, gotV)
		}
	}
}

func TestMappedFileBothSystems(t *testing.T) {
	for _, sys := range []System{SysASVM, SysXMM} {
		c := New(testParams(4, sys))
		r, srv := c.NewMappedFile("f", 16, []int{0, 1, 2, 3}, true)
		task, err := c.TaskOn(1, "t", r, 0)
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		c.Spawn("test", func(p *sim.Proc) {
			// Preloaded pages read as zero content but exist at the pager.
			if _, err := task.Touch(p, 0, vm.ProtRead); err != nil {
				t.Error(err)
				return
			}
			ok = true
		})
		c.Run()
		if !ok {
			t.Fatalf("%v: file read failed", sys)
		}
		if srv.PageIns == 0 {
			t.Fatalf("%v: file pager never consulted", sys)
		}
	}
}

func TestRemoteForkBothSystems(t *testing.T) {
	for _, sys := range []System{SysASVM, SysXMM} {
		c := New(testParams(4, sys))
		parent := c.Kerns[0].NewTask("parent")
		region := c.Kerns[0].NewAnonymous(4)
		parent.Map.MapObject(0, region, 0, 4, vm.ProtWrite, vm.InheritCopy)
		var got uint64
		c.Spawn("test", func(p *sim.Proc) {
			if err := parent.WriteU64(p, 0, 555); err != nil {
				t.Error(err)
				return
			}
			child, err := c.RemoteFork(parent, 2, "child")
			if err != nil {
				t.Error(err)
				return
			}
			got, err = child.ReadU64(p, 0)
			if err != nil {
				t.Error(err)
			}
		})
		c.Run()
		if got != 555 {
			t.Fatalf("%v: child read %d, want 555", sys, got)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	c := New(testParams(4, SysASVM))
	bar := c.NewBarrier([]int{0, 1, 2, 3})
	var release []sim.Time
	for n := 0; n < 4; n++ {
		n := n
		c.Spawn("w", func(p *sim.Proc) {
			p.Sleep(sim.Time(n+1) * 1e6) // stagger arrivals
			bar.Await(p, n)
			release = append(release, p.Now())
		})
	}
	c.Run()
	if len(release) != 4 {
		t.Fatalf("released %d, want 4", len(release))
	}
	min, max := release[0], release[0]
	for _, r := range release {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	// All released after the last arrival (4ms), within message latency of
	// each other.
	if min < 4e6 {
		t.Fatalf("released before last arrival: %v", release)
	}
	if max-min > 5e6 {
		t.Fatalf("release skew too large: %v", release)
	}
}

func TestBarrierReusableAcrossRounds(t *testing.T) {
	c := New(testParams(3, SysASVM))
	bar := c.NewBarrier([]int{0, 1, 2})
	rounds := make([]int, 3)
	for n := 0; n < 3; n++ {
		n := n
		c.Spawn("w", func(p *sim.Proc) {
			for r := 0; r < 5; r++ {
				p.Sleep(sim.Time(n*100) * 1000)
				bar.Await(p, n)
				rounds[n]++
			}
		})
	}
	c.Run()
	for n, r := range rounds {
		if r != 5 {
			t.Fatalf("node %d completed %d rounds", n, r)
		}
	}
}

func TestMemoryPressureEndToEnd(t *testing.T) {
	// A region larger than one node's memory: ASVM internode paging must
	// keep everything correct.
	p := testParams(4, SysASVM)
	p.MemMB = 8 // 1 MB user = 128 pages
	c := New(p)
	r := c.NewSharedRegion("big", 300, []int{0, 1, 2, 3})
	task, err := c.TaskOn(1, "t", r, 0)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	c.Spawn("test", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			if err := task.WriteU64(p, vm.Addr(i*vm.PageSize), uint64(i)); err != nil {
				t.Error(err)
				failed = true
				return
			}
		}
		for i := 0; i < 300; i++ {
			v, err := task.ReadU64(p, vm.Addr(i*vm.PageSize))
			if err != nil {
				t.Error(err)
				failed = true
				return
			}
			if v != uint64(i) {
				t.Errorf("page %d = %d", i, v)
				failed = true
			}
		}
	})
	c.Run()
	if failed {
		t.Fatal("memory pressure run failed")
	}
	if c.Kerns[1].Mem.ResidentPages > 128 {
		t.Fatalf("node 1 resident = %d > 128", c.Kerns[1].Mem.ResidentPages)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		c := New(testParams(4, SysASVM))
		r := c.NewSharedRegion("r", 16, []int{0, 1, 2, 3})
		tasks := make([]*vm.Task, 4)
		for i := range tasks {
			var err error
			tasks[i], err = c.TaskOn(i, "t", r, 0)
			if err != nil {
				t.Fatal(err)
			}
		}
		for n := 0; n < 4; n++ {
			n := n
			c.Spawn("w", func(p *sim.Proc) {
				for i := 0; i < 16; i++ {
					tasks[n].WriteU64(p, vm.Addr(((i+n)%16)*vm.PageSize), uint64(i))
				}
			})
		}
		return c.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic cluster runs: %v vs %v", a, b)
	}
}

// TestSystemsDifferentialOracle drives the identical randomized operation
// sequence through ASVM, XMM, and a flat in-memory oracle: every read must
// match the oracle under both systems, including under memory pressure
// (evictions, internode paging, paging space).
func TestSystemsDifferentialOracle(t *testing.T) {
	for _, sys := range []System{SysASVM, SysXMM} {
		for _, memMB := range []int{0, 8} {
			p := testParams(4, sys)
			p.MemMB = memMB
			c := New(p)
			const pages = 48
			r := c.NewSharedRegion("diff", pages, []int{0, 1, 2, 3})
			tasks := make([]*vm.Task, 4)
			for i := range tasks {
				var err error
				tasks[i], err = c.TaskOn(i, "t", r, 0)
				if err != nil {
					t.Fatal(err)
				}
			}
			oracle := make([]uint64, pages)
			rng := sim.NewRNG(99)
			mismatches := 0
			c.Spawn("driver", func(pr *sim.Proc) {
				for step := 0; step < 400; step++ {
					n := rng.Intn(4)
					pg := rng.Intn(pages)
					addr := vm.Addr(pg * vm.PageSize)
					if rng.Intn(2) == 0 {
						v := rng.Uint64()
						if err := tasks[n].WriteU64(pr, addr, v); err != nil {
							t.Error(err)
							return
						}
						oracle[pg] = v
					} else {
						v, err := tasks[n].ReadU64(pr, addr)
						if err != nil {
							t.Error(err)
							return
						}
						if v != oracle[pg] {
							mismatches++
						}
					}
				}
			})
			c.Run()
			if mismatches != 0 {
				t.Fatalf("%v memMB=%d: %d oracle mismatches", sys, memMB, mismatches)
			}
		}
	}
}

// TestClusterBuildsOneWire checks that a cluster carries its traffic on
// the one wire its system's cost row asks for: NORMA-IPC under XMM and
// under ASVM over NORMA, STS otherwise.
func TestClusterBuildsOneWire(t *testing.T) {
	cases := []struct {
		sys       System
		overNorma bool
		wire      string
	}{
		{SysASVM, false, "sts"},
		{SysXMM, false, "norma"},
		{SysASVM, true, "norma"},
	}
	for _, tc := range cases {
		p := testParams(4, tc.sys)
		p.ASVMOverNorma = tc.overNorma
		c := New(p)
		r := c.NewSharedRegion("s", 4, []int{0, 1, 2, 3})
		t0, _ := c.TaskOn(0, "t", r, 0)
		t1, _ := c.TaskOn(1, "t", r, 0)
		c.Spawn("test", func(p *sim.Proc) {
			t0.WriteU64(p, 0, 1)
			t1.ReadU64(p, 0)
		})
		c.Run()
		if got := c.Wire.Name(); got != tc.wire {
			t.Errorf("%v over norma=%v: wire %q, want %q", tc.sys, tc.overNorma, got, tc.wire)
		}
		if c.Wire.Msgs == 0 {
			t.Errorf("%v over norma=%v: no message crossed the wire", tc.sys, tc.overNorma)
		}
	}
}
