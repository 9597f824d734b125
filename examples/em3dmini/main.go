// Em3dmini: a small EM3D run (the paper's §4.3 application) timed on one
// node and on four under each memory system — the same computation is a
// speedup under ASVM and a slowdown under XMM.
package main

import (
	"fmt"
	"log"
	"time"

	"asvm/internal/exp"
	"asvm/internal/machine"
)

func main() {
	const (
		cells = 64000
		nodes = 4
		iters = 2
	)
	fmt.Printf("EM3D: %d cells, %d nodes, %d iterations (paper runs 100)\n\n", cells, nodes, iters)

	// run assembles the cluster the configuration asks for and runs EM3D.
	run := func(sys machine.System, cfg exp.EM3DConfig) (time.Duration, error) {
		p := machine.DefaultParams(cfg.Nodes)
		p.System = sys
		p.MemMB = cfg.MemMB
		p.Seed = cfg.Seed
		d, _, err := exp.RunEM3D(machine.New(p), cfg)
		return d, err
	}
	seq := exp.DefaultEM3D(cells, 1, iters)
	seq.MemMB = 0
	seqTime, err := run(machine.SysASVM, seq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential reference: %8.2f s\n", seqTime.Seconds())

	for _, sys := range []machine.System{machine.SysASVM, machine.SysXMM} {
		cfg := exp.DefaultEM3D(cells, nodes, iters)
		d, err := run(sys, cfg)
		if err != nil {
			log.Fatal(err)
		}
		speedup := seqTime.Seconds() / d.Seconds()
		verdict := "speedup"
		if speedup < 1 {
			verdict = "slowdown"
		}
		fmt.Printf("%-5v on %d nodes:     %8.2f s  (%.2fx %s)\n", sys, nodes, d.Seconds(), speedup, verdict)
	}
	fmt.Println("\nThe same sharing pattern scales under the distributed manager and")
	fmt.Println("collapses under the centralized one — the paper's Table 3 in miniature.")
}
