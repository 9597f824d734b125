package exp

import (
	"fmt"
	"io"

	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// Distribution measures the *tail* of fault latency under contention — a
// view the paper's mean-based tables cannot show. All nodes fault pages of
// a shared region concurrently for several rounds; every individual fault
// is sampled and the percentiles reported. The centralized manager's queue
// shows up as a heavy tail long before it dominates the mean.
func Distribution(w io.Writer, nodes, pages, rounds int, seed uint64, workers int) error {
	systems := []machine.System{machine.SysASVM, machine.SysXMM}
	series, err := RunCells(workers, len(systems), func(i int) (*sim.Series, error) {
		s, _, err := distRun(systems[i], nodes, pages, rounds, seed)
		if err != nil {
			return nil, fmt.Errorf("dist %v: %w", systems[i], err)
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fault latency distribution under contention (%d nodes, %d pages, %d rounds)\n",
		nodes, pages, rounds)
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %10s\n", "system", "P50", "P90", "P99", "max", "mean")
	for i, sys := range systems {
		s := series[i]
		fmt.Fprintf(w, "%-6v %10s %10s %10s %10s %10s\n", sys,
			ms(s.Percentile(50)), ms(s.Percentile(90)), ms(s.Percentile(99)),
			ms(s.Max()), ms(s.Mean()))
	}
	return nil
}

// distRun executes the contention workload and returns the latency samples
// plus the finished cluster (so callers can read engine counters).
func distRun(sys machine.System, nodes, pages, rounds int, seed uint64) (*sim.Series, *machine.Cluster, error) {
	p := machine.DefaultParams(nodes)
	p.System = sys
	p.Seed = seed
	c := machine.New(p)
	all := make([]int, nodes)
	for i := range all {
		all[i] = i
	}
	r := c.NewSharedRegion("dist", vm.PageIdx(pages), all)
	series := sim.NewSeries(sys.String())
	errs := make([]error, nodes)
	rng := sim.NewRNG(seed)
	for n := 0; n < nodes; n++ {
		n := n
		task, err := c.TaskOn(n, "t", r, 0)
		if err != nil {
			return nil, nil, err
		}
		// Per-proc deterministic access order.
		order := rng.Perm(pages)
		c.Spawn("dist", func(pr *sim.Proc) {
			for round := 0; round < rounds; round++ {
				for _, pg := range order {
					want := vm.ProtRead
					if (pg+round+n)%3 == 0 {
						want = vm.ProtWrite
					}
					t0 := pr.Now()
					if _, err := task.Touch(pr, vm.Addr(pg*vm.PageSize), want); err != nil {
						errs[n] = err
						return
					}
					if d := pr.Now() - t0; d > 0 {
						series.Add(d)
					}
				}
			}
		})
	}
	c.Run()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	if series.N() == 0 {
		return nil, nil, fmt.Errorf("exp: no faults sampled")
	}
	return series, c, nil
}
