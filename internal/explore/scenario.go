package explore

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// Scenario is one exploration workload: a small cluster, a deterministic
// set of tasks driving the protocol, and the regions whose invariants must
// hold. All schedule variation comes from the chooser — scenarios
// themselves are seed-fixed.
type Scenario struct {
	Name  string
	About string
	// Bounded marks scenarios small enough for exhaustive DFS (2–4 nodes,
	// a handful of faults). Walk accepts any scenario.
	Bounded bool
	// Live marks the liveness-focused set (crash plans, lossy links): the
	// scenarios asvmcheck -live walks. Every run already enforces the
	// liveness contract — these are the ones built to stress it.
	Live bool
	// Params returns the cluster configuration.
	Params func() machine.Params
	// Run builds regions and spawns the workload procs; errors a proc hits
	// (fault retries exhausted, mapping failures) go to fail. The returned
	// regions are invariant-checked at every busy quiesce and at drain.
	Run func(c *machine.Cluster, fail func(error)) []*machine.Region
}

// worker spawns one task-driving proc on a node of the region.
func worker(c *machine.Cluster, fail func(error), node int, r *machine.Region,
	body func(p *sim.Proc, t *vm.Task) error) {
	c.Spawn(fmt.Sprintf("%s-n%d", r.Name, node), func(p *sim.Proc) {
		t, err := c.TaskOn(node, fmt.Sprintf("w%d", node), r, 0)
		if err != nil {
			fail(err)
			return
		}
		if err := body(p, t); err != nil {
			fail(err)
		}
	})
}

func smallParams(nodes int) machine.Params {
	p := machine.DefaultParams(nodes)
	p.TrackData = true
	return p
}

// tolerate maps crash-stop degradation errors to nil: a worker whose node
// died or whose page became unreachable has been degraded, not failed. Any
// other error is a real workload failure.
func tolerate(err error) error {
	var nc *vm.ErrNodeCrashed
	var ou *vm.ErrObjectUnavailable
	if errors.As(err, &nc) || errors.As(err, &ou) {
		return nil
	}
	return err
}

// addr returns the byte address of word w inside page pg.
func addr(pg, w int) vm.Addr {
	return vm.Addr(pg)*vm.PageSize + vm.Addr(w*8)
}

var scenarios = []*Scenario{
	{
		Name:    "rw2",
		About:   "2 nodes, 1 page: concurrent write/read ping-pong",
		Bounded: true,
		Params:  func() machine.Params { return smallParams(2) },
		Run: func(c *machine.Cluster, fail func(error)) []*machine.Region {
			r := c.NewSharedRegion("rw2", 1, []int{0, 1})
			for n := 0; n < 2; n++ {
				n := n
				worker(c, fail, n, r, func(p *sim.Proc, t *vm.Task) error {
					for i := 0; i < 3; i++ {
						if err := t.WriteU64(p, addr(0, n), uint64(n*10+i)); err != nil {
							return err
						}
						if _, err := t.ReadU64(p, addr(0, 2)); err != nil {
							return err
						}
						p.Sleep(100 * time.Microsecond)
					}
					return nil
				})
			}
			return []*machine.Region{r}
		},
	},
	{
		Name:    "rw3",
		About:   "3 nodes, 2 pages: writers collide across pages",
		Bounded: true,
		Params:  func() machine.Params { return smallParams(3) },
		Run: func(c *machine.Cluster, fail func(error)) []*machine.Region {
			r := c.NewSharedRegion("rw3", 2, []int{0, 1, 2})
			for n := 0; n < 3; n++ {
				n := n
				worker(c, fail, n, r, func(p *sim.Proc, t *vm.Task) error {
					for i := 0; i < 2; i++ {
						pg := (n + i) % 2
						if err := t.WriteU64(p, addr(pg, n), uint64(100*n+i)); err != nil {
							return err
						}
						if _, err := t.ReadU64(p, addr(1-pg, 3)); err != nil {
							return err
						}
					}
					return nil
				})
			}
			return []*machine.Region{r}
		},
	},
	{
		Name:    "ring4",
		About:   "4 nodes, 1 page: ownership rings around staggered writers",
		Bounded: true,
		Params:  func() machine.Params { return smallParams(4) },
		Run: func(c *machine.Cluster, fail func(error)) []*machine.Region {
			r := c.NewSharedRegion("ring4", 1, []int{0, 1, 2, 3})
			for n := 0; n < 4; n++ {
				n := n
				worker(c, fail, n, r, func(p *sim.Proc, t *vm.Task) error {
					p.Sleep(time.Duration(n) * 50 * time.Microsecond)
					if err := t.WriteU64(p, addr(0, n), uint64(n)); err != nil {
						return err
					}
					if _, err := t.ReadU64(p, addr(0, (n+1)%4)); err != nil {
						return err
					}
					return t.WriteU64(p, addr(0, n+4), uint64(n))
				})
			}
			return []*machine.Region{r}
		},
	},
	{
		Name:    "xfer-evict",
		About:   "3 nodes, 2-page caches: eviction hands ownership to a reader, then the new owner must invalidate the other",
		Bounded: true,
		Params: func() machine.Params {
			p := smallParams(3)
			// Tiny caches make the owner evict the contended page while
			// read copies are still out — the ownerXfer/pageOffer path.
			p.MemPages = 2
			return p
		},
		Run: func(c *machine.Cluster, fail func(error)) []*machine.Region {
			r := c.NewSharedRegion("xe", 3, []int{0, 1, 2})
			// Node 0: owns p0, then touches p1/p2 so p0 is evicted to a
			// reader via ownership transfer.
			worker(c, fail, 0, r, func(p *sim.Proc, t *vm.Task) error {
				if err := t.WriteU64(p, addr(0, 0), 7); err != nil {
					return err
				}
				p.Sleep(2 * time.Millisecond)
				if err := t.WriteU64(p, addr(1, 0), 8); err != nil {
					return err
				}
				return t.WriteU64(p, addr(2, 0), 9)
			})
			// Node 1: reads p0 (becomes a reader), later writes it — after
			// the transfer it is the owner and must invalidate node 2.
			// (Sleeps are sized around the ~2.4 ms initial-fault latency —
			// the home consults its pager on first touch — so the eviction
			// transfer lands between the reads and this write.)
			worker(c, fail, 1, r, func(p *sim.Proc, t *vm.Task) error {
				p.Sleep(1 * time.Millisecond)
				if _, err := t.ReadU64(p, addr(0, 0)); err != nil {
					return err
				}
				p.Sleep(8 * time.Millisecond)
				return t.WriteU64(p, addr(0, 1), 11)
			})
			// Node 2: reads p0 twice; between the reads its copy must be
			// invalidated by node 1's write.
			worker(c, fail, 2, r, func(p *sim.Proc, t *vm.Task) error {
				p.Sleep(1 * time.Millisecond)
				if _, err := t.ReadU64(p, addr(0, 0)); err != nil {
					return err
				}
				p.Sleep(11 * time.Millisecond)
				_, err := t.ReadU64(p, addr(0, 0))
				return err
			})
			return []*machine.Region{r}
		},
	},
	{
		Name:    "fault2",
		About:   "2 nodes, 1 page, lossy link under the reliability layer: drops and dups become explorable choices",
		Bounded: true,
		Live:    true,
		Params: func() machine.Params {
			p := smallParams(2)
			// Nonzero rates arm the fault classes; under exploration the
			// chooser picks fates, so the exact values only matter off the
			// explorer (they are never used there — scenarios run with a
			// chooser installed).
			p.Fault = xport.FaultPlan{Drop: 0.05, Dup: 0.05}
			p.Reliable = true
			return p
		},
		Run: func(c *machine.Cluster, fail func(error)) []*machine.Region {
			r := c.NewSharedRegion("f2", 1, []int{0, 1})
			for n := 0; n < 2; n++ {
				n := n
				worker(c, fail, n, r, func(p *sim.Proc, t *vm.Task) error {
					for i := 0; i < 2; i++ {
						if err := t.WriteU64(p, addr(0, n), uint64(n+i)); err != nil {
							return err
						}
						if _, err := t.ReadU64(p, addr(0, 2)); err != nil {
							return err
						}
					}
					return nil
				})
			}
			return []*machine.Region{r}
		},
	},
	{
		Name:  "crash3",
		About: "3 nodes, 2 pages: node 2 dies mid-run (fate is a choice point); survivors must resolve every fault — granted or typed-failed — never hang",
		Live:  true,
		Params: func() machine.Params {
			p := smallParams(3)
			// The plan implies the reliability layer. Under the explorer the
			// crash is a ChoiceCrash point: alternative 0 keeps the default
			// schedule crash-free, so only perturbed runs kill the node.
			// The crash lands after the ~2.4 ms initial-fault window, when
			// node 2 plausibly owns a contended page and survivors are
			// mid-fault on it — the state the recovery paths exist for.
			p.Crash = machine.CrashPlan{Crashes: []machine.NodeCrash{
				{Node: 2, At: 8 * time.Millisecond},
			}}
			return p
		},
		Run: func(c *machine.Cluster, fail func(error)) []*machine.Region {
			r := c.NewSharedRegion("c3", 2, []int{0, 1, 2})
			for n := 0; n < 3; n++ {
				n := n
				worker(c, fail, n, r, func(p *sim.Proc, t *vm.Task) error {
					for i := 0; i < 3; i++ {
						pg := (n + i) % 2
						if err := tolerate(t.WriteU64(p, addr(pg, n), uint64(n*10+i))); err != nil {
							return err
						}
						if c.NodeIsCrashed(n) {
							return nil // our node died; the task died with it
						}
						if _, err := t.ReadU64(p, addr(1-pg, 3)); tolerate(err) != nil {
							return err
						}
						p.Sleep(300 * time.Microsecond)
					}
					return nil
				})
			}
			return []*machine.Region{r}
		},
	},
	{
		Name:  "crash-restart3",
		About: "3 nodes, 2 pages: node 2 dies and rejoins cold; post-restart traffic routes through its ring position and the home's grant ledger must stay coherent",
		Live:  true,
		Params: func() machine.Params {
			p := smallParams(3)
			p.Crash = machine.CrashPlan{Crashes: []machine.NodeCrash{
				{Node: 2, At: 800 * time.Microsecond, Restart: 3 * time.Millisecond},
			}}
			return p
		},
		Run: func(c *machine.Cluster, fail func(error)) []*machine.Region {
			r := c.NewSharedRegion("cr3", 2, []int{0, 1, 2})
			for n := 0; n < 2; n++ {
				n := n
				worker(c, fail, n, r, func(p *sim.Proc, t *vm.Task) error {
					if err := tolerate(t.WriteU64(p, addr(n, n), uint64(n+1))); err != nil {
						return err
					}
					// Sleep past the restart, then touch both pages again so
					// requests forward through the reborn node's (unchanged)
					// static-hash position.
					p.Sleep(6 * time.Millisecond)
					if err := tolerate(t.WriteU64(p, addr(1-n, n), uint64(n+7))); err != nil {
						return err
					}
					_, err := t.ReadU64(p, addr(n, 4))
					return tolerate(err)
				})
			}
			worker(c, fail, 2, r, func(p *sim.Proc, t *vm.Task) error {
				// Rides into the crash window; every outcome is legal except
				// an untyped error or a hang.
				for i := 0; i < 2; i++ {
					if err := tolerate(t.WriteU64(p, addr(i, 2), uint64(i+3))); err != nil {
						return err
					}
					if c.NodeIsCrashed(2) {
						return nil
					}
					p.Sleep(200 * time.Microsecond)
				}
				return nil
			})
			return []*machine.Region{r}
		},
	},
	{
		Name:    "mix8",
		About:   "8 nodes, 4 pages: Table-1-scale mixed sharing for random walks",
		Bounded: false,
		Params:  func() machine.Params { return smallParams(8) },
		Run: func(c *machine.Cluster, fail func(error)) []*machine.Region {
			nodes := []int{0, 1, 2, 3, 4, 5, 6, 7}
			r := c.NewSharedRegion("mix8", 4, nodes)
			for _, n := range nodes {
				n := n
				worker(c, fail, n, r, func(p *sim.Proc, t *vm.Task) error {
					for i := 0; i < 3; i++ {
						pg := (n + i) % 4
						if n%2 == 0 {
							if err := t.WriteU64(p, addr(pg, n), uint64(n*100+i)); err != nil {
								return err
							}
						} else if _, err := t.ReadU64(p, addr(pg, 0)); err != nil {
							return err
						}
						p.Sleep(time.Duration(50+10*n) * time.Microsecond)
					}
					return nil
				})
			}
			return []*machine.Region{r}
		},
	},
}

// Scenarios returns the registry in its fixed order.
func Scenarios() []*Scenario { return scenarios }

// BoundedScenarios returns the scenarios eligible for exhaustive DFS.
func BoundedScenarios() []*Scenario {
	var out []*Scenario
	for _, sc := range scenarios {
		if sc.Bounded {
			out = append(out, sc)
		}
	}
	return out
}

// LiveScenarios returns the liveness-focused set (asvmcheck -live).
func LiveScenarios() []*Scenario {
	var out []*Scenario
	for _, sc := range scenarios {
		if sc.Live {
			out = append(out, sc)
		}
	}
	return out
}

// Lookup returns the named scenario, or nil.
func Lookup(name string) *Scenario {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc
		}
	}
	return nil
}

// Names lists all scenario names, sorted.
func Names() []string {
	out := make([]string, len(scenarios))
	for i, sc := range scenarios {
		out[i] = sc.Name
	}
	sort.Strings(out)
	return out
}
