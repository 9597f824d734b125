package exp

import (
	"errors"
	"fmt"
	"io"
	"time"

	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

// This file is the crash sweep: the crash-churn workload crossed over
// crashed-node counts and message-drop rates, with a restart column. Every
// cell must complete with zero panics, pass the Down-aware global
// invariants on the survivors, and report its degradation explicitly —
// crash-stop loses work by design, and the sweep quantifies exactly how
// much instead of hiding it.

// CrashCounts is the crashed-node axis of the sweep.
var CrashCounts = []int{0, 1, 2}

// CrashDropRates is the message-drop axis: a clean wire, and 1% drop so
// crashes overlap retransmission recovery.
var CrashDropRates = []float64{0, 0.01}

// CrashCell is one sweep point.
type CrashCell struct {
	Crashed int
	Restart bool
	Rate    float64
}

// CrashCells builds the sweep grid: every crashed count crossed with every
// drop rate (permanent crashes), plus restart variants of the 1-crash
// column.
func CrashCells() []CrashCell {
	var cells []CrashCell
	for _, k := range CrashCounts {
		for _, rate := range CrashDropRates {
			cells = append(cells, CrashCell{Crashed: k, Rate: rate})
		}
	}
	for _, rate := range CrashDropRates {
		cells = append(cells, CrashCell{Crashed: 1, Restart: true, Rate: rate})
	}
	return cells
}

// crashConfigFor translates one cell into a workload config.
func crashConfigFor(cell CrashCell, seed uint64, quick bool) crashConfig {
	nodes := 8
	if quick {
		nodes = 6
	}
	cfg := defaultCrash(nodes, cell.Crashed, seed)
	if quick {
		cfg.Rounds = 80
	}
	if cell.Restart {
		cfg.RestartAfter = 6 * time.Millisecond
	}
	return cfg
}

// RunCrashCells executes the sweep grid and returns per-cell results,
// deterministic for a given seed regardless of the worker count.
func RunCrashCells(cells []CrashCell, seed uint64, workers int, quick bool) ([]ChaosResult, error) {
	return RunCells(workers, len(cells), func(i int) (ChaosResult, error) {
		cell := cells[i]
		res, err := runCrash(crashConfigFor(cell, seed, quick), ChaosPlanFor(cell.Rate))
		if err != nil {
			return ChaosResult{}, fmt.Errorf("crash sweep crashed=%d restart=%v drop=%.2f%%: %w",
				cell.Crashed, cell.Restart, cell.Rate*100, err)
		}
		return res, nil
	})
}

// runCrash runs the crash-churn workload on a chaos cluster carrying cfg's
// crash plan; Metric is the completed operation count.
func runCrash(cfg crashConfig, plan xport.FaultPlan) (ChaosResult, error) {
	p := cellParams(machine.SysASVM, cfg.Nodes, cfg.Seed)
	p.TrackData = true
	p.Crash = cfg.plan()
	return runChaos(p, plan, func(c *machine.Cluster) (float64, *machine.Region, error) {
		n, r, err := crashChurn(c, cfg)
		return float64(n), r, err
	})
}

// Crash runs the crash sweep and renders the degradation report.
func Crash(w io.Writer, seed uint64, workers int, quick bool) error {
	cells := CrashCells()
	results, err := RunCrashCells(cells, seed, workers, quick)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Crash sweep: crash-stop degradation of the crash-churn workload")
	fmt.Fprintln(w, "(every cell drained and invariant-checked on the survivors; ops = completed operations)")
	fmt.Fprintf(w, "%8s %8s %7s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"crashed", "restart", "drop", "ops", "vs 0", "aborted", "redrive", "ownlost", "pglost", "cpdrop", "hintevt", "ringsc")
	var base float64
	for i, cell := range cells {
		r := results[i]
		if cell.Crashed == 0 && !cell.Restart && cell.Rate == 0 {
			base = r.Metric
		}
		delta := "-"
		if base > 0 && !(cell.Crashed == 0 && cell.Rate == 0) {
			delta = fmt.Sprintf("%+.1f%%", (r.Metric-base)/base*100)
		}
		fmt.Fprintf(w, "%8d %8v %6.2f%% %8.0f %8s %8d %8d %8d %8d %8d %8d %8d\n",
			cell.Crashed, cell.Restart, cell.Rate*100, r.Metric, delta,
			r.FaultsAborted, r.FaultRedrives, r.OwnershipLost, r.PagesLost,
			r.CopiesDropped, r.HintEvictions, r.RingScanHops)
	}
	return nil
}

// crashConfig describes one cell of the crash-churn workload: a churning
// read/write mix over one shared region while a crash plan kills nodes
// mid-run. Survivors must keep making progress — faults re-drive or fail
// with typed errors, never panic — and the drained cluster must pass the
// (Down-aware) global invariants. The figure of merit is completed
// operations: under crash-stop some work is necessarily lost, and the
// degradation counters say exactly how much.
type crashConfig struct {
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

// defaultCrash returns the standard cell: crashed highest-index nodes (the
// home at node 0 survives; TestCrashChurnHomeDeath kills it), killed far
// enough into the run that the dying nodes hold ownership, dirty contents,
// and read copies — so every degradation path is exercised — while most of
// the workload still runs degraded.
func defaultCrash(nodes, crashed int, seed uint64) crashConfig {
	cfg := crashConfig{
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

// plan translates the config into the machine layer's crash plan.
func (cfg crashConfig) plan() machine.CrashPlan {
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

// crashChurn runs the crash-churn workload on c, which must have cfg.Nodes
// nodes and cfg.plan() as its crash plan. Returned is the number of
// operations completed across all nodes (higher is better; the zero-crash
// cell is the baseline) and the shared region.
func crashChurn(c *machine.Cluster, cfg crashConfig) (int, *machine.Region, error) {
	if err := checkNodes(c, cfg.Nodes); err != nil {
		return 0, nil, err
	}
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
			return 0, nil, err
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
		return 0, nil, benchErr
	}
	return completed, r, nil
}

func isNodeCrashed(err error) bool {
	var e *vm.ErrNodeCrashed
	return errors.As(err, &e)
}

func isObjectUnavailable(err error) bool {
	var e *vm.ErrObjectUnavailable
	return errors.As(err, &e)
}
