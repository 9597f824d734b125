// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§4) and prints the measured values
// next to the paper's, so the reproduction quality is visible at a glance.
//
// Experiment index (DESIGN.md §4): T1 = Table 1, F10/F11 = Figures 10/11,
// T2 = Table 2 (+ Figures 12/13), T3 = Table 3, A1..A3 = ablations.
//
// The paper's three workloads live here too: the page-fault latency
// microbenchmarks (faultbench.go: Table 1, Figures 10/11), the mapped-file
// transfer (filebench.go: Table 2) and the EM3D application (em3d.go:
// Table 3). Every workload body programs against app.Host, the
// simulator's extension of the portable app.Mem; simhost runs it on a cluster the caller assembled with the node
// count the workload states, and the workload rejects any other size.
package exp

import (
	"fmt"
	"io"
	"time"

	"asvm/internal/machine"
)

// cellParams is the calibrated configuration of one experiment cell: every
// cell runs on its own fresh cluster, which the experiment (not the
// workload) assembles.
func cellParams(sys machine.System, nodes int, seed uint64) machine.Params {
	p := machine.DefaultParams(nodes)
	p.System = sys
	p.Seed = seed
	return p
}

// em3dParams is the cluster an EM3D configuration runs on: its node count,
// per-node memory and graph seed.
func em3dParams(sys machine.System, cfg EM3DConfig) machine.Params {
	p := cellParams(sys, cfg.Nodes, cfg.Seed)
	p.MemMB = cfg.MemMB
	return p
}

// measureFault runs one fault scenario on a fresh data-tracking cluster of
// the scenario's size.
func measureFault(sys machine.System, sc faultScenario, seed uint64) (time.Duration, error) {
	p := cellParams(sys, faultClusterSize(sc), seed)
	p.TrackData = true
	lat, _, err := faultLatency(machine.New(p), sc)
	return lat, err
}

// measureChainFault runs Figure 11's chain of the given length on a fresh
// data-tracking cluster of chain+1 nodes.
func measureChainFault(sys machine.System, chain int, seed uint64) (time.Duration, error) {
	p := cellParams(sys, chain+1, seed)
	p.TrackData = true
	lat, _, err := chainFaultLatency(machine.New(p), chain)
	return lat, err
}

// ms renders a duration in paper-style milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// Table1Paper holds the paper's measured latencies (ms) row-aligned with
// table1Scenarios.
var Table1Paper = map[machine.System][]float64{
	machine.SysASVM: {2.24, 3.10, 8.96, 1.51, 7.75, 2.35, 2.35},
	machine.SysXMM:  {38.42, 12.92, 72.18, 3.83, 63.72, 38.59, 10.06},
}

// Table1 regenerates Table 1: basic page-fault latencies. The 14 cells
// (7 scenarios x 2 systems) are independent simulations and run on workers
// goroutines (see RunCells); the table is assembled in scenario order.
func Table1(w io.Writer, seed uint64, workers int) error {
	scs := table1Scenarios()
	type cell struct {
		sys machine.System
		sc  faultScenario
	}
	cells := make([]cell, 0, 2*len(scs))
	for _, sc := range scs {
		cells = append(cells, cell{machine.SysASVM, sc}, cell{machine.SysXMM, sc})
	}
	lats, err := RunCells(workers, len(cells), func(i int) (time.Duration, error) {
		lat, err := measureFault(cells[i].sys, cells[i].sc, seed)
		if err != nil {
			return 0, fmt.Errorf("T1 %v %q: %w", cells[i].sys, cells[i].sc.Name, err)
		}
		return lat, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 1: Page Fault Latencies (ms)")
	fmt.Fprintf(w, "%-52s %10s %10s %10s %10s\n", "Fault Type", "ASVM", "paper", "XMM", "paper")
	for i, sc := range scs {
		fmt.Fprintf(w, "%-52s %10s %10.2f %10s %10.2f\n", sc.Name,
			ms(lats[2*i]), Table1Paper[machine.SysASVM][i],
			ms(lats[2*i+1]), Table1Paper[machine.SysXMM][i])
	}
	return nil
}

// Figure10 regenerates Figure 10: write-fault latency vs. read copies.
// Every (readers, configuration) pair is an independent cell.
func Figure10(w io.Writer, readers []int, seed uint64, workers int) error {
	names := []string{"ASVM write fault", "ASVM upgrade fault", "XMM write fault", "XMM upgrade fault"}
	markers := []byte{'a', 'A', 'x', 'X'}
	chart := make([]Series, 4)
	for i := range chart {
		chart[i] = Series{Name: names[i], Marker: markers[i]}
	}
	cfgs := []struct {
		sys     machine.System
		upgrade bool
	}{
		{machine.SysASVM, false}, {machine.SysASVM, true},
		{machine.SysXMM, false}, {machine.SysXMM, true},
	}
	type cell struct{ r, cfg int }
	var cells []cell
	for _, r := range readers {
		for ci, cf := range cfgs {
			if cf.upgrade && r < 1 {
				continue
			}
			cells = append(cells, cell{r, ci})
		}
	}
	lats, err := RunCells(workers, len(cells), func(i int) (time.Duration, error) {
		c := cells[i]
		lat, err := measureFault(cfgs[c.cfg].sys, faultScenario{
			Name: "fig10", Readers: c.r, Write: true, FaulterHasCopy: cfgs[c.cfg].upgrade,
		}, seed)
		if err != nil {
			return 0, fmt.Errorf("F10 %v r=%d: %w", cfgs[c.cfg].sys, c.r, err)
		}
		return lat, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 10: Write fault latency vs. number of read copies (ms)")
	fmt.Fprintf(w, "%8s %14s %14s %14s %14s\n", "readers",
		"ASVM wf", "ASVM upgrade", "XMM wf", "XMM upgrade")
	k := 0
	for _, r := range readers {
		row := make([]time.Duration, 4)
		for ci, cf := range cfgs {
			if cf.upgrade && r < 1 {
				continue
			}
			lat := lats[k]
			k++
			row[ci] = lat
			chart[ci].Ys = append(chart[ci].Ys, float64(lat)/float64(time.Millisecond))
		}
		fmt.Fprintf(w, "%8d %14s %14s %14s %14s\n", r,
			ms(row[0]), ms(row[1]), ms(row[2]), ms(row[3]))
	}
	fmt.Fprintln(w, "paper slopes: ASVM ~0.09-0.10 ms/reader, XMM ~0.9-1.0 ms/reader")
	fmt.Fprintln(w)
	RenderChart(w, "Figure 10 (log ms)", "read copies", "latency", readers, chart, true)
	return nil
}

// Figure11Paper gives the paper's fitted model: latency = lb + n*la.
var Figure11Paper = map[machine.System]struct{ Lb, La float64 }{
	machine.SysASVM: {2.7, 0.48},
	machine.SysXMM:  {5.0, 4.3},
}

// Figure11 regenerates Figure 11: inherited-memory fault latency vs. copy
// chain length, and fits lb + n*la. Each (chain, system) pair is a cell.
func Figure11(w io.Writer, chains []int, seed uint64, workers int) error {
	systems := []machine.System{machine.SysASVM, machine.SysXMM}
	lats, err := RunCells(workers, 2*len(chains), func(i int) (time.Duration, error) {
		n, sys := chains[i/2], systems[i%2]
		lat, err := measureChainFault(sys, n, seed)
		if err != nil {
			return 0, fmt.Errorf("F11 %v n=%d: %w", sys, n, err)
		}
		return lat, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 11: Page fault latency across copy chains (ms/page)")
	fmt.Fprintf(w, "%8s %12s %12s\n", "chain", "ASVM", "XMM")
	lat := map[machine.System][]float64{}
	for i, n := range chains {
		a, x := lats[2*i], lats[2*i+1]
		lat[machine.SysASVM] = append(lat[machine.SysASVM], float64(a)/float64(time.Millisecond))
		lat[machine.SysXMM] = append(lat[machine.SysXMM], float64(x)/float64(time.Millisecond))
		fmt.Fprintf(w, "%8d %12s %12s\n", n, ms(a), ms(x))
	}
	for _, sys := range []machine.System{machine.SysASVM, machine.SysXMM} {
		lb, la := fitLine(chains, lat[sys])
		p := Figure11Paper[sys]
		fmt.Fprintf(w, "%v fit: lb=%.2f ms la=%.2f ms/hop   (paper: lb=%.1f la=%.2f)\n",
			sys, lb, la, p.Lb, p.La)
	}
	fmt.Fprintln(w)
	RenderChart(w, "Figure 11 (ms per page)", "chain length", "latency", chains, []Series{
		{Name: "ASVM", Marker: 'a', Ys: lat[machine.SysASVM]},
		{Name: "XMM", Marker: 'x', Ys: lat[machine.SysXMM]},
	}, false)
	return nil
}

// fitLine least-squares fits y = lb + la*x.
func fitLine(xs []int, ys []float64) (lb, la float64) {
	n := float64(len(xs))
	if n < 2 {
		if n == 1 {
			return ys[0], 0
		}
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i, x := range xs {
		fx := float64(x)
		sx += fx
		sy += ys[i]
		sxx += fx * fx
		sxy += fx * ys[i]
	}
	la = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	lb = (sy - la*sx) / n
	return lb, la
}

// Table2Paper holds the paper's MB/s values indexed by node count.
var Table2Paper = map[string]map[int]float64{
	"ASVM write": {1: 2.80, 2: 2.60, 4: 2.05, 8: 1.22, 16: 0.62, 32: 0.30, 64: 0.15},
	"XMM write":  {1: 2.15, 2: 1.77, 4: 0.90, 8: 0.49, 16: 0.24, 32: 0.12, 64: 0.06},
	"ASVM read":  {1: 1.57, 2: 1.53, 4: 1.14, 8: 0.91, 16: 0.70, 32: 0.66, 64: 0.66},
	"XMM read":   {1: 1.18, 2: 0.38, 4: 0.25, 8: 0.11, 16: 0.05, 32: 0.02, 64: 0.01},
}

// Table2Series lists the Table 2 series in column order.
var Table2Series = []string{"ASVM write", "XMM write", "ASVM read", "XMM read"}

// Table2Rates measures the Table 2 grid and returns MB/s-per-node values
// keyed by series, index-aligned with nodes — the machine-readable form
// behind Table2, used by benchmark snapshots.
func Table2Rates(nodes []int, seed uint64, workers int) (map[string][]float64, error) {
	measure := func(series string, n int) (float64, error) {
		sys, run := machine.SysASVM, fileReadRate
		if series == "XMM write" || series == "XMM read" {
			sys = machine.SysXMM
		}
		if series == "ASVM write" || series == "XMM write" {
			run = fileWriteRate
		}
		rate, _, err := run(machine.New(cellParams(sys, fileClusterSize(n), seed)), n)
		return rate, err
	}
	vals, err := RunCells(workers, 4*len(nodes), func(i int) (float64, error) {
		n, series := nodes[i/4], Table2Series[i%4]
		v, err := measure(series, n)
		if err != nil {
			return 0, fmt.Errorf("T2 %s n=%d: %w", series, n, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	rates := map[string][]float64{}
	for i := range nodes {
		for j, s := range Table2Series {
			rates[s] = append(rates[s], vals[4*i+j])
		}
	}
	return rates, nil
}

// Table2 regenerates Table 2 (and Figures 12/13): mapped-file transfer
// rates. Each (nodes, series) pair is a cell; Table2Rates does the
// measuring.
func Table2(w io.Writer, nodes []int, seed uint64, workers int) error {
	rates, err := Table2Rates(nodes, seed, workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 2: File Transfer Rates (MB/s per node; paper value in parens)")
	fmt.Fprintf(w, "%8s %22s %22s %22s %22s\n", "nodes",
		"ASVM write", "XMM write", "ASVM read", "XMM read")
	for i, n := range nodes {
		cell := func(series string) string {
			return fmt.Sprintf("%6.2f (%5.2f)", rates[series][i], Table2Paper[series][n])
		}
		fmt.Fprintf(w, "%8d %22s %22s %22s %22s\n", n,
			cell("ASVM write"), cell("XMM write"),
			cell("ASVM read"), cell("XMM read"))
	}
	fmt.Fprintln(w)
	RenderChart(w, "Figure 13: write transfer rates (MB/s per node)", "nodes", "MB/s", nodes, []Series{
		{Name: "ASVM write", Marker: 'a', Ys: rates["ASVM write"]},
		{Name: "XMM write", Marker: 'x', Ys: rates["XMM write"]},
	}, false)
	fmt.Fprintln(w)
	RenderChart(w, "Figure 12: read transfer rates (MB/s per node)", "nodes", "MB/s", nodes, []Series{
		{Name: "ASVM read", Marker: 'a', Ys: rates["ASVM read"]},
		{Name: "XMM read", Marker: 'x', Ys: rates["XMM read"]},
	}, false)
	return nil
}

// Table3Paper holds the paper's EM3D timings (seconds) [cells][nodes].
var Table3Paper = map[machine.System]map[int]map[int]float64{
	machine.SysASVM: {
		64000:   {1: 43.6, 2: 32.0, 4: 19.9, 8: 13.9, 16: 11.2, 32: 9.86, 64: 9.55},
		256000:  {1: 174, 8: 33.6, 16: 21.5, 32: 15.6, 64: 12.8},
		1024000: {1: 698, 32: 54.2, 64: 24.4},
	},
	machine.SysXMM: {
		64000:   {1: 43.6, 2: 151, 4: 213, 8: 392, 16: 755, 32: 1405, 64: 2735},
		256000:  {1: 174, 8: 520, 16: 842, 32: 1604, 64: 2957},
		1024000: {1: 698, 32: 1863, 64: 3373},
	},
}

// Table3 regenerates Table 3: EM3D execution times. Infeasible
// combinations print ** like the paper; the sequential column runs with
// unlimited memory (the paper's 32 MB node, marked *).
func Table3(w io.Writer, sizes, nodes []int, iters int, seed uint64, workers int) error {
	// Build the grid of feasible cells first; EM3D runs are the longest
	// simulations in the suite, so they benefit most from the worker pool.
	type cell struct {
		sys   machine.System
		cells int
		n     int
		cfg   EM3DConfig
	}
	var grid []cell
	for _, sys := range []machine.System{machine.SysASVM, machine.SysXMM} {
		for _, cells := range sizes {
			for _, n := range nodes {
				cfg := DefaultEM3D(cells, n, iters)
				cfg.Seed = seed
				if n == 1 {
					cfg.MemMB = 0 // the paper's 32 MB reference node
				}
				if !cfg.Feasible() {
					continue
				}
				grid = append(grid, cell{sys, cells, n, cfg})
			}
		}
	}
	durs, err := RunCells(workers, len(grid), func(i int) (time.Duration, error) {
		c := grid[i]
		d, _, err := RunEM3D(machine.New(em3dParams(c.sys, c.cfg)), c.cfg)
		if err != nil {
			return 0, fmt.Errorf("T3 %v cells=%d n=%d: %w", c.sys, c.cells, c.n, err)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 3: EM3D Timings (seconds; paper value in parens)")
	header := fmt.Sprintf("%-16s", "system/cells")
	for _, n := range nodes {
		header += fmt.Sprintf(" %16d", n)
	}
	fmt.Fprintln(w, header)
	k := 0
	for _, sys := range []machine.System{machine.SysASVM, machine.SysXMM} {
		for _, cells := range sizes {
			row := fmt.Sprintf("%-16s", fmt.Sprintf("%v %d", sys, cells))
			for _, n := range nodes {
				if k >= len(grid) || grid[k].sys != sys || grid[k].cells != cells || grid[k].n != n {
					row += fmt.Sprintf(" %16s", "**")
					continue
				}
				// Scale to the paper's 100 iterations when running fewer.
				secs := durs[k].Seconds() * 100 / float64(iters)
				k++
				if paper := Table3Paper[sys][cells][n]; paper > 0 {
					row += fmt.Sprintf(" %7.1f (%6.1f)", secs, paper)
				} else {
					row += fmt.Sprintf(" %16.1f", secs)
				}
			}
			fmt.Fprintln(w, row)
		}
	}
	return nil
}
