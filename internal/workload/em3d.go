package workload

import (
	"fmt"
	"slices"
	"time"

	"asvm/internal/app"
	"asvm/internal/app/simhost"
	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// EM3DConfig parameterizes the EM3D electromagnetic wave propagation
// application (paper §4.3): a bipartite graph of E and H cells, updated in
// alternating phases over shared virtual memory.
type EM3DConfig struct {
	// Cells is the total number of cells (E + H). Paper: 64000, 256000,
	// 1024000.
	Cells int
	// EdgesPerCell is the in-degree of each cell (paper: 6).
	EdgesPerCell int
	// RemotePct is the percentage of edges whose source cell lives on a
	// different node (paper: 20).
	RemotePct int
	// Iters is the number of compute iterations (paper: 100).
	Iters int
	// Nodes is the number of compute nodes.
	Nodes int
	// CellBytes is the memory footprint per cell (paper: 224).
	CellBytes int
	// PerCellCompute is the update cost for one cell including its edge
	// arithmetic; calibrated so the sequential 64000-cell run lands at the
	// paper's 43.6 s.
	PerCellCompute time.Duration
	// GhostCells is the size of the neighbour-boundary window remote edges
	// select their sources from (EM3D graphs are physically local: remote
	// dependencies cluster at partition boundaries).
	GhostCells int
	// MemMB is per-node memory (16 for the paper's GP nodes; 0 for the
	// unlimited sequential reference run marked * in Table 3).
	MemMB int
	// Seed drives graph generation.
	Seed uint64
}

// DefaultEM3D returns the paper's configuration for a problem size and
// node count.
func DefaultEM3D(cells, nodes, iters int) EM3DConfig {
	return EM3DConfig{
		Cells:          cells,
		EdgesPerCell:   6,
		RemotePct:      20,
		Iters:          iters,
		Nodes:          nodes,
		CellBytes:      224,
		PerCellCompute: 6800 * time.Nanosecond,
		GhostCells:     256,
		MemMB:          16,
		Seed:           1,
	}
}

// DatasetBytes returns the problem's memory footprint.
func (cfg EM3DConfig) DatasetBytes() int64 {
	return int64(cfg.Cells) * int64(cfg.CellBytes)
}

// Feasible reports whether the combined user memory of the nodes can hold
// the dataset (the paper omits infeasible combinations, marked **).
func (cfg EM3DConfig) Feasible() bool {
	if cfg.MemMB <= 0 {
		return true
	}
	userBytes := int64(cfg.Nodes) * int64(cfg.MemMB-machine.OSMemMB) * (1 << 20)
	return cfg.DatasetBytes() <= userBytes
}

// em3dNodePlan is one node's per-phase page working set.
type em3dNodePlan struct {
	readE, writeE []vm.PageIdx // E phase: read H sources, write own E cells
	readH, writeH []vm.PageIdx // H phase: read E sources, write own H cells
	updatesE      int
	updatesH      int
}

// planEM3D derives each node's page sets from the graph structure.
// Layout: node n owns the contiguous cell block [n*cpn, (n+1)*cpn); the
// first half of each block holds E cells, the second half H cells.
func planEM3D(cfg EM3DConfig) []em3dNodePlan {
	rng := sim.NewRNG(cfg.Seed)
	cpn := cfg.Cells / cfg.Nodes
	cellPage := func(cell int) vm.PageIdx {
		return vm.PageIdx(int64(cell) * int64(cfg.CellBytes) / vm.PageSize)
	}
	pagesOf := func(firstCell, nCells int) []vm.PageIdx {
		if nCells <= 0 {
			return nil
		}
		lo := cellPage(firstCell)
		hi := cellPage(firstCell + nCells - 1)
		out := make([]vm.PageIdx, 0, hi-lo+1)
		for pg := lo; pg <= hi; pg++ {
			out = append(out, pg)
		}
		return out
	}
	plans := make([]em3dNodePlan, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		base := n * cpn
		half := cpn / 2
		eFirst, eCount := base, half
		hFirst, hCount := base+half, cpn-half

		var p em3dNodePlan
		p.updatesE = eCount
		p.updatesH = hCount
		p.writeE = pagesOf(eFirst, eCount)
		p.writeH = pagesOf(hFirst, hCount)

		// Remote sources cluster at neighbouring nodes' boundary windows.
		ghost := cfg.GhostCells
		if ghost > half {
			ghost = half
		}
		remoteE := eCount * cfg.EdgesPerCell * cfg.RemotePct / 100
		remoteH := hCount * cfg.EdgesPerCell * cfg.RemotePct / 100

		sample := func(count int, pickHHalf bool) map[vm.PageIdx]bool {
			set := make(map[vm.PageIdx]bool)
			if cfg.Nodes == 1 || ghost == 0 {
				return set
			}
			for k := 0; k < count; k++ {
				var nb int
				if rng.Intn(2) == 0 {
					nb = (n + 1) % cfg.Nodes
				} else {
					nb = (n - 1 + cfg.Nodes) % cfg.Nodes
				}
				nbBase := nb * cpn
				nbHalf := cpn / 2
				var cell int
				if pickHHalf {
					cell = nbBase + nbHalf + rng.Intn(ghost)
				} else {
					cell = nbBase + rng.Intn(ghost)
				}
				set[cellPage(cell)] = true
			}
			return set
		}

		// E update reads H cells: own H pages (fast-path in steady state)
		// plus the remote ghost pages.
		remE := sample(remoteE, true)
		p.readE = append(append([]vm.PageIdx(nil), p.writeH...), setToSlice(remE)...)
		remH := sample(remoteH, false)
		p.readH = append(append([]vm.PageIdx(nil), p.writeE...), setToSlice(remH)...)
		plans[n] = p
	}
	return plans
}

// setToSlice returns m's pages in ascending order (deterministic).
func setToSlice(m map[vm.PageIdx]bool) []vm.PageIdx {
	out := make([]vm.PageIdx, 0, len(m))
	for pg := range m {
		out = append(out, pg)
	}
	slices.Sort(out)
	return out
}

// RunEM3D executes the benchmark on c, which must have cfg.Nodes nodes
// (with cfg.MemMB of memory each), and returns the execution time of the
// computation loop (initialization excluded, like the paper) and the
// shared region.
func RunEM3D(c *machine.Cluster, cfg EM3DConfig) (time.Duration, *machine.Region, error) {
	if cfg.Nodes < 1 || cfg.Cells%cfg.Nodes != 0 {
		return 0, nil, fmt.Errorf("workload: %d cells not divisible by %d nodes", cfg.Cells, cfg.Nodes)
	}
	if err := checkNodes(c, cfg.Nodes); err != nil {
		return 0, nil, err
	}
	regionPages := vm.PageIdx((cfg.DatasetBytes() + vm.PageSize - 1) / vm.PageSize)
	w, err := simhost.NewWorld(c, []simhost.Spec{{Name: "em3d", Pages: int64(regionPages)}})
	if err != nil {
		return 0, nil, err
	}
	bar := w.NewBarrier()
	plans := planEM3D(cfg)

	all := make([]int, cfg.Nodes)
	for i := range all {
		all[i] = i
	}
	if err := w.Prepare(all...); err != nil {
		return 0, nil, err
	}

	// Initialization phase: every node touches its own block (excluded
	// from the measured time, like the paper).
	initBar := w.NewBarrier()
	starts := make([]sim.Time, cfg.Nodes)
	ends := make([]sim.Time, cfg.Nodes)
	for n := range all {
		n := n
		plan := plans[n]
		w.GoOn(n, fmt.Sprintf("em3d%d", n), func(h app.Host) error {
			touch := func(pages []vm.PageIdx, write bool) error {
				for _, pg := range pages {
					off := int64(pg) * vm.PageSize
					if write {
						if err := h.Write(0, off, 0); err != nil {
							return err
						}
					} else if _, err := h.Read(0, off); err != nil {
						return err
					}
				}
				return nil
			}
			if err := touch(plan.writeE, true); err != nil {
				return err
			}
			if err := touch(plan.writeH, true); err != nil {
				return err
			}
			if err := h.Barrier(initBar); err != nil {
				return err
			}
			starts[n] = h.Now()
			for iter := 0; iter < cfg.Iters; iter++ {
				// E phase: new E from H neighbours.
				if err := touch(plan.readE, false); err != nil {
					return err
				}
				if err := touch(plan.writeE, true); err != nil {
					return err
				}
				h.Sleep(time.Duration(plan.updatesE) * cfg.PerCellCompute)
				if err := h.Barrier(bar); err != nil {
					return err
				}
				// H phase: new H from E neighbours.
				if err := touch(plan.readH, false); err != nil {
					return err
				}
				if err := touch(plan.writeH, true); err != nil {
					return err
				}
				h.Sleep(time.Duration(plan.updatesH) * cfg.PerCellCompute)
				if err := h.Barrier(bar); err != nil {
					return err
				}
			}
			ends[n] = h.Now()
			return nil
		})
	}
	if err := w.Run(); err != nil {
		return 0, nil, err
	}
	var last sim.Time
	var first sim.Time
	for n := range all {
		if ends[n] == 0 {
			return 0, nil, fmt.Errorf("workload: em3d node %d never finished (deadlock?)", n)
		}
		if n == 0 || starts[n] < first {
			first = starts[n]
		}
		if ends[n] > last {
			last = ends[n]
		}
	}
	return last - first, w.Region(0), nil
}
