package exp

import (
	"fmt"
	"io"
	"time"

	"asvm/internal/machine"
	"asvm/internal/workload"
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

// CrashConfigFor translates one cell into a workload config.
func CrashConfigFor(cell CrashCell, seed uint64, quick bool) workload.CrashConfig {
	nodes := 8
	if quick {
		nodes = 6
	}
	cfg := workload.DefaultCrash(nodes, cell.Crashed, seed)
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
		res, err := runCrash(CrashConfigFor(cell, seed, quick), ChaosPlanFor(cell.Rate))
		if err != nil {
			return ChaosResult{}, fmt.Errorf("crash sweep crashed=%d restart=%v drop=%.2f%%: %w",
				cell.Crashed, cell.Restart, cell.Rate*100, err)
		}
		return res, nil
	})
}

// runCrash runs the crash-churn workload on a chaos cluster carrying cfg's
// crash plan; Metric is the completed operation count.
func runCrash(cfg workload.CrashConfig, plan xport.FaultPlan) (ChaosResult, error) {
	p := cellParams(machine.SysASVM, cfg.Nodes, cfg.Seed)
	p.TrackData = true
	p.Crash = cfg.Plan()
	return runChaos(p, plan, func(c *machine.Cluster) (float64, *machine.Region, error) {
		n, r, err := workload.CrashChurn(c, cfg)
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
