package machine

import (
	"errors"
	"testing"
	"time"

	"asvm/internal/sim"
	"asvm/internal/vm"
)

func TestStripedFileCorrectness(t *testing.T) {
	p := testParams(8, SysASVM)
	c := New(p)
	r, servers, err := c.NewStripedFile("sf", 32, []int{1, 2, 3}, []int{0, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 2 {
		t.Fatalf("servers = %d", len(servers))
	}
	task, err := c.TaskOn(1, "t", r, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Spawn("test", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			if err := task.WriteU64(p, vm.Addr(i*vm.PageSize), uint64(2000+i)); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 32; i++ {
			v, err := task.ReadU64(p, vm.Addr(i*vm.PageSize))
			if err != nil {
				t.Error(err)
				return
			}
			if v != uint64(2000+i) {
				t.Errorf("page %d = %d", i, v)
			}
		}
	})
	c.Run()
}

func TestStripedFileDistributesPageouts(t *testing.T) {
	// Force pageouts by memory pressure with internode paging off: dirty
	// pages go to the striped backing store, round-robin.
	p := testParams(4, SysASVM)
	p.MemMB = 8 // 128 user pages
	p.ASVM.DisableInternodePaging = true
	c := New(p)
	r, servers, err := c.NewStripedFile("sf", 256, []int{1}, []int{0, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	task, err := c.TaskOn(1, "t", r, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Spawn("test", func(p *sim.Proc) {
		for i := 0; i < 256; i++ {
			if _, err := task.Touch(p, vm.Addr(i*vm.PageSize), vm.ProtWrite); err != nil {
				t.Error(err)
				return
			}
		}
	})
	c.Run()
	if servers[0].PageOuts == 0 || servers[1].PageOuts == 0 {
		t.Fatalf("pageouts not striped: %d / %d", servers[0].PageOuts, servers[1].PageOuts)
	}
	// Round-robin: both stripes within 2x of each other.
	a, b := servers[0].PageOuts, servers[1].PageOuts
	if a > 2*b || b > 2*a {
		t.Fatalf("stripe imbalance: %d vs %d", a, b)
	}
}

func TestStripedFileParallelReadThroughput(t *testing.T) {
	// Cold reads of a preloaded striped file: two stripes should beat one
	// (two disks working concurrently) — the §6 motivation.
	measure := func(stripes []int) time.Duration {
		p := testParams(8, SysASVM)
		c := New(p)
		r, _, err := c.NewStripedFile("sf", 64, []int{1, 2}, stripes, true)
		if err != nil {
			t.Fatal(err)
		}
		var worst sim.Time
		for _, n := range []int{1, 2} {
			n := n
			task, err := c.TaskOn(n, "t", r, 0)
			if err != nil {
				t.Fatal(err)
			}
			c.Spawn("reader", func(p *sim.Proc) {
				start := (n - 1) * 32
				for k := 0; k < 64; k++ {
					pg := (start + k) % 64
					if _, err := task.Touch(p, vm.Addr(pg*vm.PageSize), vm.ProtRead); err != nil {
						t.Error(err)
						return
					}
				}
				if p.Now() > worst {
					worst = p.Now()
				}
			})
		}
		c.Run()
		return worst
	}
	one := measure([]int{0})
	two := measure([]int{0, 4})
	if two >= one {
		t.Fatalf("two stripes (%v) not faster than one (%v)", two, one)
	}
}

// TestStripedFileCrashRecovery: a striped file is a region like any other
// under crash-stop. When the owner of one of its pages crashes, a
// survivor's read of that page still ends — granted from the stripes or
// failed with a typed ErrObjectUnavailable — the cluster drains and the
// invariants hold. A crashed and restarted home is handed its stripes
// again and serves page-ins through every one of them.
func TestStripedFileCrashRecovery(t *testing.T) {
	p := testParams(5, SysASVM)
	p.Reliable = true
	c := New(p)
	r, servers, err := c.NewStripedFile("sf", 8, []int{1, 2, 3}, []int{0, 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	task := func(n int) *vm.Task {
		tk, err := c.TaskOn(n, "t", r, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	// step runs fn on a proc and bounds the run at 5 s of virtual time: a
	// fault that never ends leaves fn unfinished or events still queued.
	step := func(name string, fn func(p *sim.Proc) error) {
		t.Helper()
		done := false
		c.Spawn(name, func(p *sim.Proc) {
			if err := fn(p); err != nil {
				var ou *vm.ErrObjectUnavailable
				if !errors.As(err, &ou) {
					t.Errorf("%s: %v", name, err)
				}
			}
			done = true
		})
		c.Eng.RunUntil(c.Eng.Now() + sim.Time(5*time.Second))
		if !done || c.Eng.Pending() != 0 {
			t.Fatalf("%s: done=%v with %d events still queued after 5 s", name, done, c.Eng.Pending())
		}
		if err := c.CheckInvariants(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	t3, t1 := task(3), task(1)
	step("own", func(p *sim.Proc) error { return t3.WriteU64(p, 0, 33) })
	if !c.ASVMs[3].Instance(r.ID).Owns(0) {
		t.Fatal("node 3 does not own page 0 after writing it")
	}
	c.CrashNode(3)
	step("read-after-owner-crash", func(p *sim.Proc) error {
		_, err := t1.ReadU64(p, 0)
		return err
	})

	c.CrashNode(1)
	c.RestartNode(1)
	before := []uint64{servers[0].PageIns, servers[1].PageIns}
	t2 := task(2)
	step("read-after-home-restart", func(p *sim.Proc) error {
		for pg := vm.PageIdx(4); pg < 8; pg++ {
			if _, err := t2.ReadU64(p, vm.Addr(pg)*vm.PageSize); err != nil {
				return err
			}
		}
		return nil
	})
	for i, s := range servers {
		if s.PageIns <= before[i] {
			t.Errorf("stripe %d served no page-in after the home restarted (%d before, %d after)", i, before[i], s.PageIns)
		}
	}
}
