package workload

import (
	"fmt"
	"time"

	"asvm/internal/app"
	"asvm/internal/app/simhost"
	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// SORConfig parameterizes a red-black successive over-relaxation solver
// over a shared 2-D grid — the other canonical SVM application of the era
// (Li's thesis and the TreadMarks paper both use it). Rows are partitioned
// across nodes; each iteration reads the neighbour partitions' boundary
// rows, which is exactly the page-sharing pattern that separates a
// distributed manager from a centralized one.
type SORConfig struct {
	// Rows and Cols give the grid size; each element is 8 bytes.
	Rows, Cols int
	// Iters is the number of red/black iteration pairs.
	Iters int
	// Nodes is the number of compute nodes.
	Nodes int
	// PerElemCompute is the update cost per grid element.
	PerElemCompute time.Duration
}

// DefaultSOR returns a medium-size configuration.
func DefaultSOR(rows, cols, nodes, iters int) SORConfig {
	return SORConfig{
		Rows: rows, Cols: cols, Iters: iters, Nodes: nodes,
		PerElemCompute: 150 * time.Nanosecond,
	}
}

// RunSOR executes the solver on c, which must have cfg.Nodes nodes, and
// returns the time for the iteration loop and the grid region.
func RunSOR(c *machine.Cluster, cfg SORConfig) (time.Duration, *machine.Region, error) {
	if cfg.Nodes < 1 || cfg.Rows%cfg.Nodes != 0 {
		return 0, nil, fmt.Errorf("workload: %d rows not divisible by %d nodes", cfg.Rows, cfg.Nodes)
	}
	if err := checkNodes(c, cfg.Nodes); err != nil {
		return 0, nil, err
	}
	rowBytes := int64(cfg.Cols) * 8
	gridBytes := rowBytes * int64(cfg.Rows)
	regionPages := vm.PageIdx((gridBytes + vm.PageSize - 1) / vm.PageSize)
	all := make([]int, cfg.Nodes)
	for i := range all {
		all[i] = i
	}
	w, err := simhost.NewWorld(c, []simhost.Spec{{Name: "sor", Pages: int64(regionPages)}})
	if err != nil {
		return 0, nil, err
	}
	bar := w.NewBarrier()

	rowsPer := cfg.Rows / cfg.Nodes
	rowPages := func(row int) (vm.PageIdx, vm.PageIdx) {
		lo := vm.PageIdx(int64(row) * rowBytes / vm.PageSize)
		hi := vm.PageIdx((int64(row+1)*rowBytes - 1) / vm.PageSize)
		return lo, hi
	}
	pageSpan := func(firstRow, lastRow int) []vm.PageIdx {
		lo, _ := rowPages(firstRow)
		_, hi := rowPages(lastRow)
		out := make([]vm.PageIdx, 0, hi-lo+1)
		for pg := lo; pg <= hi; pg++ {
			out = append(out, pg)
		}
		return out
	}

	starts := make([]sim.Time, cfg.Nodes)
	ends := make([]sim.Time, cfg.Nodes)
	for n := range all {
		n := n
		first, last := n*rowsPer, (n+1)*rowsPer-1
		own := pageSpan(first, last)
		var halo []vm.PageIdx
		if n > 0 {
			halo = append(halo, pageSpan(first-1, first-1)...)
		}
		if n < cfg.Nodes-1 {
			halo = append(halo, pageSpan(last+1, last+1)...)
		}
		compute := time.Duration(rowsPer*cfg.Cols) * cfg.PerElemCompute

		if err := w.Prepare(n); err != nil {
			return 0, nil, err
		}
		w.GoOn(n, fmt.Sprintf("sor%d", n), func(h app.Host) error {
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
			if err := touch(own, true); err != nil {
				return err
			}
			if err := h.Barrier(bar); err != nil {
				return err
			}
			starts[n] = h.Now()
			for iter := 0; iter < cfg.Iters; iter++ {
				// Red sweep then black sweep: read neighbour halos, update
				// own rows.
				for half := 0; half < 2; half++ {
					if err := touch(halo, false); err != nil {
						return err
					}
					if err := touch(own, true); err != nil {
						return err
					}
					h.Sleep(compute / 2)
					if err := h.Barrier(bar); err != nil {
						return err
					}
				}
			}
			ends[n] = h.Now()
			return nil
		})
	}
	if err := w.Run(); err != nil {
		return 0, nil, err
	}
	var first, last sim.Time
	for n := range all {
		if ends[n] == 0 {
			return 0, nil, fmt.Errorf("workload: sor node %d never finished", n)
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
