// Command asvmbench regenerates the paper's evaluation: every table and
// figure of "A New Approach to Distributed Memory Management in the Mach
// Microkernel" (USENIX '96), plus the ablations described in DESIGN.md.
//
// Independent experiment cells (each its own seeded simulation) run on a
// worker pool sized by -workers; parallelism changes wall-clock time only,
// never a simulated metric.
//
// Usage:
//
//	asvmbench -list                  # print the valid -exp names
//	asvmbench -exp table1            # one experiment
//	asvmbench -exp all -quick        # everything, reduced sweeps
//	asvmbench -exp table3 -iters 10  # EM3D with 10 iterations (scaled)
//	asvmbench -exp chaos             # degradation sweep under message faults
//	asvmbench -exp crash             # degradation sweep under node crashes
//	asvmbench -exp scale             # 64-1024 node zipf scale-out sweep
//	asvmbench -exp kv                # portable kv workload (netdemo's sim twin)
//	asvmbench -workers 1             # serial cells (for profiling a cell)
//	asvmbench -cpuprofile cpu.pb.gz  # pprof the run (see EXPERIMENTS.md)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"asvm/internal/exp"
)

// config is what the flags fix for every experiment of one run.
type config struct {
	seed                   uint64
	workers, iters         int
	quick                  bool
	nodes, readers, chains []int
	em3dSizes, em3dNodes   []int
}

// experiment is one catalogue entry: the -exp selector that picks it, the
// name its "[... done in]" line reports, whether -exp all runs it, and the
// run itself.
type experiment struct {
	sel, name string
	inAll     bool
	run       func(c config) error
}

// catalogue lists every experiment in run order; -list, the selector check
// and the run loop all read it. The four ablations share one selector.
// chaos, crash, scale and kv stay out of "all": they measure fault-injected
// configurations, crash-stop degradation, machines beyond the paper's
// envelope and the portable layer's kv workload (netdemo's simulated twin),
// so their output never mixes into the paper tables of results_full.txt.
var catalogue = []experiment{
	{"table1", "table1", true, func(c config) error { return exp.Table1(os.Stdout, c.seed, c.workers) }},
	{"fig10", "fig10", true, func(c config) error { return exp.Figure10(os.Stdout, c.readers, c.seed, c.workers) }},
	{"fig11", "fig11", true, func(c config) error { return exp.Figure11(os.Stdout, c.chains, c.seed, c.workers) }},
	{"table2", "table2", true, func(c config) error { return exp.Table2(os.Stdout, c.nodes, c.seed, c.workers) }},
	{"table3", "table3", true, func(c config) error {
		return exp.Table3(os.Stdout, c.em3dSizes, c.em3dNodes, c.iters, c.seed, c.workers)
	}},
	{"dist", "dist", true, func(c config) error { return exp.Distribution(os.Stdout, 8, 16, 4, c.seed, c.workers) }},
	{"chaos", "chaos", false, func(c config) error { return exp.Chaos(os.Stdout, exp.ChaosRates, c.seed, c.workers, c.quick) }},
	{"crash", "crash", false, func(c config) error { return exp.Crash(os.Stdout, c.seed, c.workers, c.quick) }},
	{"scale", "scale", false, func(c config) error { return exp.Scale(os.Stdout, c.seed, c.workers, c.quick) }},
	{"kv", "kv", false, func(c config) error { return exp.KV(os.Stdout, c.seed, c.workers, c.quick) }},
	{"ablations", "ablation-forwarding", true, func(c config) error { return exp.AblationForwarding(os.Stdout, 8, 6, c.seed, c.workers) }},
	{"ablations", "ablation-transport", true, func(c config) error { return exp.AblationTransport(os.Stdout, c.seed, c.workers) }},
	{"ablations", "ablation-internode-paging", true, func(c config) error { return exp.AblationInternodePaging(os.Stdout, c.seed, c.workers) }},
	{"ablations", "ablation-chain-threads", true, func(c config) error { return exp.AblationChainThreads(os.Stdout, c.seed, c.workers) }},
}

// selectors returns the valid -exp names in run order, "all" last.
func selectors() []string {
	var out []string
	for _, e := range catalogue {
		if len(out) == 0 || out[len(out)-1] != e.sel {
			out = append(out, e.sel)
		}
	}
	return append(out, "all")
}

// pick returns the catalogue entries a selector runs, in run order, or an
// error naming every valid selector.
func pick(sel string) ([]experiment, error) {
	var out []experiment
	for _, e := range catalogue {
		if e.sel == sel || sel == "all" && e.inAll {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s)", sel, strings.Join(selectors(), "|"))
	}
	return out, nil
}

func main() {
	var (
		which   = flag.String("exp", "all", "experiment: "+strings.Join(selectors(), "|"))
		quick   = flag.Bool("quick", false, "reduced sweeps (small node counts, few iterations)")
		iters   = flag.Int("iters", 10, "EM3D iterations (results are scaled to the paper's 100)")
		seed    = flag.Uint64("seed", 1, "workload RNG seed")
		workers = flag.Int("workers", 0, "parallel experiment cells (0 = GOMAXPROCS, 1 = serial)")
		list    = flag.Bool("list", false, "list the valid -exp experiment names and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf = flag.String("memprofile", "", "write an allocation profile to this path at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asvmbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "asvmbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "asvmbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accurate allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "asvmbench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, n := range selectors() {
			fmt.Println(n)
		}
		return
	}

	c := config{
		seed: *seed, workers: *workers, iters: *iters, quick: *quick,
		nodes:     []int{1, 2, 4, 8, 16, 32, 64},
		readers:   []int{1, 2, 4, 8, 16, 32, 64},
		chains:    []int{1, 2, 4, 8, 12, 16},
		em3dSizes: []int{64000, 256000, 1024000},
		em3dNodes: []int{1, 2, 4, 8, 16, 32, 64},
	}
	if c.quick {
		c.nodes = []int{1, 2, 4, 8}
		c.readers = []int{1, 2, 8}
		c.chains = []int{1, 2, 4}
		c.em3dSizes = []int{64000}
		c.em3dNodes = []int{1, 2, 4, 8}
		c.iters = min(c.iters, 3)
	}

	exps, err := pick(*which)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asvmbench: %v\n", err)
		os.Exit(2)
	}
	for _, e := range exps {
		t0 := time.Now()
		if err := e.run(c); err != nil {
			fmt.Fprintf(os.Stderr, "asvmbench: %s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %.1fs]\n\n", e.name, time.Since(t0).Seconds())
	}
}
