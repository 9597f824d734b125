package machine

import (
	"fmt"
	"testing"
	"time"

	"asvm/internal/asvm"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// TestCrashPlanEmptyIsInert proves the zero-rate plan is a no-op at the
// event level, not just statistically: a cluster built without a plan and
// one built with an explicitly empty plan schedule exactly the same events
// (none, before any workload), run the same workload to the same virtual
// end time with the same executed-event count, and leave every crash
// statistic at zero. The seed-1 no-crash benchmark contract rests on this.
func TestCrashPlanEmptyIsInert(t *testing.T) {
	run := func(plan CrashPlan) (pendingAtBuild int, executed uint64, end time.Duration, stats CrashStats) {
		p := testParams(4, SysASVM)
		p.Reliable = true
		p.Crash = plan
		c := New(p)
		pendingAtBuild = c.Eng.Pending()
		r := c.NewSharedRegion("inert", 4, []int{0, 1, 2, 3})
		for n := 0; n < 4; n++ {
			n := n
			task, err := c.TaskOn(n, "w", r, 0)
			if err != nil {
				t.Fatal(err)
			}
			c.Spawn("w", func(pr *sim.Proc) {
				for i := 0; i < 8; i++ {
					idx := vm.PageIdx((n + i) % 4)
					if err := task.WriteU64(pr, vm.Addr(idx)*vm.PageSize, uint64(n*100+i)); err != nil {
						t.Errorf("node %d op %d: %v", n, i, err)
						return
					}
				}
			})
		}
		endT := c.Run()
		return pendingAtBuild, c.Eng.Executed, time.Duration(endT), c.CrashStats
	}

	basePend, baseExec, baseEnd, baseStats := run(CrashPlan{})
	emptyPend, emptyExec, emptyEnd, emptyStats := run(CrashPlan{Crashes: []NodeCrash{}})

	if basePend != 0 || emptyPend != 0 {
		t.Errorf("empty plan scheduled events at build time: %d / %d pending", basePend, emptyPend)
	}
	if baseExec != emptyExec || baseEnd != emptyEnd {
		t.Errorf("empty plan perturbed the run: exec %d/%d end %v/%v",
			baseExec, emptyExec, baseEnd, emptyEnd)
	}
	if baseStats != (CrashStats{}) || emptyStats != (CrashStats{}) {
		t.Errorf("crash stats nonzero on crash-free runs: %+v / %+v", baseStats, emptyStats)
	}

	// Contrast: an actual plan does schedule its fate event up front.
	p := testParams(4, SysASVM)
	p.Reliable = true
	p.Crash = CrashPlan{Crashes: []NodeCrash{{Node: 3, At: 5 * time.Millisecond}}}
	c := New(p)
	if c.Eng.Pending() != 1 {
		t.Errorf("1-crash plan left %d events pending at build, want 1", c.Eng.Pending())
	}
}

// TestRestartedNodeKeepsRingSlot: a crash retires the node's instance but
// leaves the domain's mapping ring intact, so the cold rejoin on restart
// (RestartNode → attach → asvm.AddNode) must reuse the node's ring slot
// rather than append a second entry — a duplicate would skew static
// hashing and the global ring scan. The home rejoins the same way.
func TestRestartedNodeKeepsRingSlot(t *testing.T) {
	c := New(testParams(3, SysASVM))
	r := c.NewSharedRegion("ring", 4, []int{0, 1, 2})
	info := r.ASVMInfo()
	want := fmt.Sprint(info.Mapping)
	if len(info.Mapping) != 3 {
		t.Fatalf("mapping has %d entries after setup, want 3: %v", len(info.Mapping), info.Mapping)
	}
	for _, idx := range []int{1, r.Home} {
		task, err := c.TaskOn(idx, "w", r, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.Spawn("w", func(p *sim.Proc) {
			if err := task.WriteU64(p, vm.Addr(idx)*vm.PageSize, uint64(idx+1)); err != nil {
				t.Errorf("node %d write: %v", idx, err)
			}
		})
		c.Run()

		c.CrashNode(idx)
		if c.ASVMs[idx].Instance(r.ID) != nil {
			t.Fatalf("node %d still has an instance after its crash", idx)
		}
		c.RestartNode(idx)
		if got := fmt.Sprint(info.Mapping); got != want {
			t.Fatalf("mapping after node %d restarted = %s, want %s", idx, got, want)
		}
		in := c.ASVMs[idx].Instance(r.ID)
		if in == nil {
			t.Fatalf("node %d has no instance after restart", idx)
		}
		if asvm.AddNode(info, c.ASVMs[idx]) != in {
			t.Fatalf("AddNode on node %d's live instance did not return it", idx)
		}
		if got := fmt.Sprint(info.Mapping); got != want {
			t.Fatalf("idempotent AddNode on node %d grew the mapping: %s, want %s", idx, got, want)
		}
	}
}
