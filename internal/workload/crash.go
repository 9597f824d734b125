package workload

import (
	"errors"
	"fmt"
	"time"

	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// This file is the crash-sweep workload: a churning read/write mix over one
// shared region while a crash plan kills nodes mid-run. Survivors must keep
// making progress — faults re-drive or fail with typed errors, never panic
// — and the drained cluster must pass the (Down-aware) global invariants.
// The figure of merit is completed operations: under crash-stop some work
// is necessarily lost, and the degradation counters say exactly how much.

// CrashConfig describes one crash-churn cell.
type CrashConfig struct {
	// Nodes is the cluster size; node 0 is the region's home.
	Nodes int
	// Pages is the shared region size.
	Pages vm.PageIdx
	// Rounds is the per-node operation budget.
	Rounds int
	// Seed drives both the workload mix and the chaos RNG.
	Seed uint64
	// Crashed lists the node indices the plan kills, staggered 2 ms apart
	// starting at CrashAt.
	Crashed []int
	// CrashAt is the first crash's virtual time.
	CrashAt time.Duration
	// RestartAfter, when positive, restarts each crashed node that long
	// after its crash; zero makes every crash permanent.
	RestartAfter time.Duration
}

// DefaultCrash returns the standard cell: crashed highest-index nodes (the
// home at node 0 survives; dedicated tests cover home death), killed far
// enough into the run that the dying nodes hold ownership, dirty contents,
// and read copies — so every degradation path is exercised — while most of
// the workload still runs degraded.
func DefaultCrash(nodes, crashed int, seed uint64) CrashConfig {
	cfg := CrashConfig{
		Nodes:   nodes,
		Pages:   48,
		Rounds:  200,
		Seed:    seed,
		CrashAt: 20 * time.Millisecond,
	}
	for i := 0; i < crashed && i < nodes-1; i++ {
		cfg.Crashed = append(cfg.Crashed, nodes-1-i)
	}
	return cfg
}

// Plan translates the config into the machine layer's crash plan.
func (cfg CrashConfig) Plan() machine.CrashPlan {
	var p machine.CrashPlan
	for i, n := range cfg.Crashed {
		nc := machine.NodeCrash{Node: n, At: cfg.CrashAt + time.Duration(i)*2*time.Millisecond}
		if cfg.RestartAfter > 0 {
			nc.Restart = nc.At + cfg.RestartAfter
		}
		p.Crashes = append(p.Crashes, nc)
	}
	return p
}

// ChaosCrash runs the crash-churn workload under a crash plan plus an
// optional message-fault plan. Metric is total completed operations across
// all nodes (higher is better; the zero-crash cell is the baseline).
func ChaosCrash(cfg CrashConfig, plan xport.FaultPlan) (ChaosResult, error) {
	p := chaosParams(cfg.Nodes, cfg.Seed, plan)
	p.TrackData = true
	p.Crash = cfg.Plan()
	c := machine.New(p)

	all := make([]int, cfg.Nodes)
	for i := range all {
		all[i] = i
	}
	r := c.NewSharedRegion("crash-churn", cfg.Pages, all)

	completed := 0
	var benchErr error
	for n := 0; n < cfg.Nodes; n++ {
		n := n
		task, err := c.TaskOn(n, fmt.Sprintf("churn%d", n), r, 0)
		if err != nil {
			return ChaosResult{}, err
		}
		rng := sim.NewRNG(cfg.Seed<<16 ^ uint64(n)*0x9E3779B97F4A7C15)
		c.Spawn(fmt.Sprintf("churn%d", n), func(p *sim.Proc) {
			for round := 0; round < cfg.Rounds; round++ {
				idx := vm.PageIdx(rng.Intn(int(cfg.Pages)))
				addr := vm.Addr(idx) * vm.PageSize
				var err error
				if rng.Intn(3) == 0 {
					err = task.WriteU64(p, addr, uint64(round)+1)
				} else {
					_, err = task.ReadU64(p, addr)
				}
				switch {
				case err == nil:
					completed++
				case isNodeCrashed(err):
					// Our own node died; the task dies with it. If a restart
					// is planned, rejoin cold with a fresh task and keep
					// churning — otherwise this proc's work is lost.
					if cfg.RestartAfter <= 0 {
						return
					}
					p.Sleep(sim.Time(cfg.RestartAfter + 4*time.Millisecond))
					task, err = c.TaskOn(n, fmt.Sprintf("churn%d-r", n), r, 0)
					if err != nil {
						benchErr = err
						return
					}
				case isObjectUnavailable(err):
					// Typed degradation: the page's home or owner died and
					// the contents are unreachable. Count nothing, move on.
				default:
					benchErr = fmt.Errorf("node %d round %d: %w", n, round, err)
					return
				}
				p.Sleep(sim.Time(40 * time.Microsecond))
			}
		})
	}
	c.Run()
	if benchErr != nil {
		return ChaosResult{}, benchErr
	}
	return collectChaos(c, r, float64(completed))
}

func isNodeCrashed(err error) bool {
	var e *vm.ErrNodeCrashed
	return errors.As(err, &e)
}

func isObjectUnavailable(err error) bool {
	var e *vm.ErrObjectUnavailable
	return errors.As(err, &e)
}
