// Sor: a red-black successive over-relaxation solver on a shared grid —
// the halo-exchange access pattern of iterative PDE solvers, the other
// classic shared-virtual-memory application of the era. Each node updates
// its band of rows and reads its neighbours' boundary rows every sweep.
package main

import (
	"fmt"
	"log"
	"time"

	"asvm/internal/machine"
	"asvm/internal/workload"
)

func main() {
	const (
		rows, cols = 1024, 1024
		nodes      = 8
		iters      = 3
	)
	fmt.Printf("red-black SOR: %dx%d grid, %d nodes, %d sweeps\n\n", rows, cols, nodes, iters)
	// run assembles a cluster of the configuration's size and runs SOR.
	run := func(sys machine.System, cfg workload.SORConfig) (time.Duration, error) {
		p := machine.DefaultParams(cfg.Nodes)
		p.System = sys
		d, _, err := workload.RunSOR(machine.New(p), cfg)
		return d, err
	}
	seq, err := run(machine.SysASVM, workload.DefaultSOR(rows, cols, 1, iters))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential:     %8.3f s\n", seq.Seconds())
	for _, sys := range []machine.System{machine.SysASVM, machine.SysXMM} {
		d, err := run(sys, workload.DefaultSOR(rows, cols, nodes, iters))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5v %d nodes:  %8.3f s  (%.2fx)\n", sys, nodes, d.Seconds(), seq.Seconds()/d.Seconds())
	}
}
