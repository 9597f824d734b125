// Command em3d runs the EM3D electromagnetic wave propagation benchmark
// (paper §4.3) standalone, on either memory system, printing the execution
// time and the per-node protocol statistics behind it.
package main

import (
	"flag"
	"fmt"
	"os"

	"asvm/internal/machine"
	"asvm/internal/workload"
)

func main() {
	var (
		cells  = flag.Int("cells", 64000, "total E+H cells (64000/256000/1024000 in the paper)")
		nodes  = flag.Int("nodes", 8, "compute nodes")
		iters  = flag.Int("iters", 10, "iterations (paper: 100)")
		system = flag.String("system", "asvm", "memory system: asvm|xmm")
		memMB  = flag.Int("mem", 16, "per-node memory in MB (0 = unlimited)")
		seed   = flag.Uint64("seed", 1, "graph seed")
		stats  = flag.Bool("stats", false, "print cluster protocol statistics")
	)
	flag.Parse()

	sys := machine.SysASVM
	if *system == "xmm" {
		sys = machine.SysXMM
	}
	cfg := workload.DefaultEM3D(*cells, *nodes, *iters)
	cfg.MemMB = *memMB
	cfg.Seed = *seed
	if !cfg.Feasible() {
		fmt.Fprintf(os.Stderr, "em3d: %d cells (%d MB) do not fit in %d nodes x %d MB (the paper marks this **)\n",
			*cells, cfg.DatasetBytes()>>20, *nodes, *memMB)
		os.Exit(1)
	}
	mp := machine.DefaultParams(*nodes)
	mp.System = sys
	mp.MemMB = *memMB
	mp.Seed = *seed
	cluster := machine.New(mp)
	d, _, err := workload.RunEM3D(cluster, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "em3d: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("EM3D %v: cells=%d nodes=%d iters=%d\n", sys, *cells, *nodes, *iters)
	fmt.Printf("execution time: %.2f s (scaled to 100 iterations: %.1f s)\n",
		d.Seconds(), d.Seconds()*100/float64(*iters))
	if *stats {
		fmt.Println()
		cluster.StatsReport(os.Stdout)
	}
}
