// Command asvmcheck hunts schedule-dependent protocol bugs in the ASVM
// state machines by exploring message orderings the deterministic seed-1
// runs never exercise. It drives the internal/explore subsystem over small
// scenarios, checking protocol invariants at every busy-bit quiesce and at
// drain, and watching for deadlock and non-termination.
//
// Usage:
//
//	asvmcheck                         # exhaustive DFS over all bounded scenarios
//	asvmcheck -scenario rw2           # one scenario
//	asvmcheck -walk 200 -quick        # 200 random schedules per scenario
//	asvmcheck -live -walk 200         # liveness walk over crash/fault scenarios
//	asvmcheck -replay bug.repro       # re-run a saved reproducer
//	asvmcheck -selftest               # inject a known bug; exit 0 iff found
//	asvmcheck -live -selftest         # inject a livelock; exit 0 iff found
//
// On a violation it prints the failing choice string, the shrunk
// reproducer, and each node's protocol trace, then exits 1 (except under
// -selftest, where finding the planted bug is success).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"asvm/internal/asvm"
	"asvm/internal/explore"
	"asvm/internal/machine"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "restrict to one scenario (default: all eligible)")
		walk     = flag.Int("walk", 0, "random-walk N schedules per scenario instead of DFS")
		replay   = flag.String("replay", "", "replay a reproducer file and exit")
		seed     = flag.Uint64("seed", 1, "random-walk seed")
		depth    = flag.Int("depth", 0, "DFS perturbation depth (0 = default)")
		branch   = flag.Int("branch", 0, "DFS branch cap per choice point (0 = default)")
		runs     = flag.Int("runs", 0, "DFS schedule budget per scenario (0 = default)")
		quick    = flag.Bool("quick", false, "reduced budgets (CI smoke)")
		out      = flag.String("o", "", "write a reproducer file here on failure")
		selftest = flag.Bool("selftest", false, "plant a known protocol bug and verify the explorer finds it")
		live     = flag.Bool("live", false, "liveness mode: walk the crash/fault scenarios; with -selftest, plant a livelock instead")
		mincover = flag.Float64("mincover", 0, "fail unless at least this fraction of legal protocol transitions was exercised")
	)
	flag.Parse()
	if err := checkFlags(*walk, *depth, *branch, *runs, *mincover); err != nil {
		fmt.Fprintf(os.Stderr, "asvmcheck: %v\n", err)
		os.Exit(2)
	}

	if *replay != "" {
		os.Exit(doReplay(*replay))
	}
	if *selftest {
		if *live {
			os.Exit(doLiveSelftest(*quick, *seed))
		}
		os.Exit(doSelftest(*quick))
	}
	if *live && *walk == 0 {
		// Liveness hunting needs deep interleavings (crash fates fire only
		// on perturbed schedules), so -live defaults to a random walk.
		*walk = 300
		if *quick {
			*walk = 100
		}
	}

	opt := explore.DFSOptions{MaxChoices: *depth, MaxBranch: *branch, MaxRuns: *runs}
	if *quick {
		if opt.MaxChoices == 0 {
			opt.MaxChoices = 8
		}
		if opt.MaxRuns == 0 {
			opt.MaxRuns = 400
		}
	}

	scs, err := pick(*scenario, *walk > 0, *live)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asvmcheck: %v\n", err)
		os.Exit(2)
	}
	var cover asvm.Coverage
	for _, sc := range scs {
		t0 := time.Now()
		var v *explore.Violation
		var repro []int
		var label string
		if *walk > 0 {
			r := explore.Walk(sc, *walk, *seed, nil)
			v, repro = r.V, r.Reproducer
			cover.Merge(&r.Cover)
			label = fmt.Sprintf("walk %-10s %4d schedules", sc.Name, r.Runs)
		} else {
			r := explore.DFS(sc, opt, nil)
			v, repro = r.V, r.Reproducer
			cover.Merge(&r.Cover)
			state := "budget-capped"
			if r.Complete {
				state = "complete"
			}
			label = fmt.Sprintf("dfs  %-10s %4d schedules (%s)", sc.Name, r.Runs, state)
		}
		if v == nil {
			fmt.Printf("%s  clean  %.1fs\n", label, time.Since(t0).Seconds())
			continue
		}
		fmt.Printf("%s  VIOLATION  %.1fs\n", label, time.Since(t0).Seconds())
		printViolation(sc.Name, v, repro)
		if *out != "" {
			if err := explore.WriteReproducer(*out, sc.Name, repro); err != nil {
				fmt.Fprintf(os.Stderr, "asvmcheck: writing %s: %v\n", *out, err)
			} else {
				fmt.Printf("  reproducer written to %s\n", *out)
			}
		}
		os.Exit(1)
	}

	hit, legal := cover.Exercised()
	frac := float64(hit) / float64(legal)
	fmt.Printf("transition coverage: %d/%d table entries (%.1f%%)\n", hit, legal, 100*frac)
	if *mincover > 0 && frac < *mincover {
		fmt.Fprintf(os.Stderr, "asvmcheck: coverage %.3f below -mincover %.3f; unexercised:\n", frac, *mincover)
		for _, pair := range cover.Unexercised() {
			fmt.Fprintf(os.Stderr, "  %s\n", pair)
		}
		os.Exit(1)
	}
}

// checkFlags rejects budgets no run can mean: a negative count would
// otherwise read as "the default" (a negative -walk even as "no walk"), and
// a coverage floor outside [0, 1] is unsatisfiable or vacuous.
func checkFlags(walk, depth, branch, runs int, mincover float64) error {
	names := []string{"walk", "depth", "branch", "runs"}
	for i, v := range []int{walk, depth, branch, runs} {
		if v < 0 {
			return fmt.Errorf("-%s %d: must not be negative", names[i], v)
		}
	}
	if !(mincover >= 0 && mincover <= 1) {
		return fmt.Errorf("-mincover %v: must be within [0, 1]", mincover)
	}
	return nil
}

// pick resolves the scenario set: one by name, the liveness-focused set
// under -live, or every scenario eligible for the mode (walks may use the
// unbounded ones too). An unknown name is an error listing every scenario.
func pick(name string, walking, live bool) ([]*explore.Scenario, error) {
	if name != "" {
		sc := explore.Lookup(name)
		if sc == nil {
			return nil, fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(explore.Names(), ", "))
		}
		return []*explore.Scenario{sc}, nil
	}
	if live {
		return explore.LiveScenarios(), nil
	}
	if walking {
		return explore.Scenarios(), nil
	}
	return explore.BoundedScenarios(), nil
}

func doReplay(path string) int {
	name, ks, err := explore.LoadReproducer(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asvmcheck: %v\n", err)
		return 2
	}
	sc := explore.Lookup(name)
	if sc == nil {
		fmt.Fprintf(os.Stderr, "asvmcheck: reproducer names unknown scenario %q\n", name)
		return 2
	}
	out := explore.Replay(sc, ks, nil)
	if out.V == nil {
		fmt.Printf("replay %s %s: clean (%d choice points seen)\n",
			name, explore.EncodeChoices(ks), len(out.Choices))
		return 0
	}
	fmt.Printf("replay %s %s: VIOLATION\n", name, explore.EncodeChoices(ks))
	printViolation(name, out.V, ks)
	return 1
}

// doSelftest proves the whole pipeline end to end: it re-enables the
// classic lost-reader-list bug on ownership transfer and requires the
// explorer to find, replay and shrink it. Exit 0 means the checker works.
func doSelftest(quick bool) int {
	sc := explore.Lookup("xfer-evict")
	mutate := func(c *machine.Cluster) {
		for _, nd := range c.ASVMs {
			nd.Hooks.DropXferReaders = true
		}
	}
	opt := explore.DFSOptions{}
	if quick {
		opt.MaxChoices, opt.MaxRuns = 8, 400
	}
	r := explore.DFS(sc, opt, mutate)
	if r.V == nil {
		fmt.Fprintf(os.Stderr, "asvmcheck: selftest FAILED — planted bug not found in %d schedules\n", r.Runs)
		return 1
	}
	rep := explore.Replay(sc, r.Reproducer, mutate)
	if rep.V == nil {
		fmt.Fprintf(os.Stderr, "asvmcheck: selftest FAILED — shrunk reproducer does not replay\n")
		return 1
	}
	fmt.Printf("selftest ok: planted reader-list bug found in %d schedules, reproducer %q (%d choices)\n",
		r.Runs, explore.EncodeChoices(r.Reproducer), len(r.Reproducer))
	return 0
}

// doLiveSelftest proves the liveness checker end to end: it re-enables the
// classic crash-handling bug pair — bounced requests are silently discarded
// and faults are not re-driven when a peer dies — so a survivor's fault
// whose request died inside the crashed node never resolves. It requires a
// walk over the crash scenario to find, shrink and replay that hang as a
// liveness violation.
func doLiveSelftest(quick bool, seed uint64) int {
	sc := explore.Lookup("crash3")
	mutate := func(c *machine.Cluster) {
		for _, nd := range c.ASVMs {
			nd.Hooks.DropNackResume = true
			nd.Hooks.DropFaultRedrive = true
		}
	}
	runs := 400
	if quick {
		runs = 150
	}
	r := explore.Walk(sc, runs, seed, mutate)
	if r.V == nil {
		fmt.Fprintf(os.Stderr, "asvmcheck: live selftest FAILED — planted livelock not found in %d schedules\n", r.Runs)
		return 1
	}
	if r.V.Kind != "liveness" {
		fmt.Fprintf(os.Stderr, "asvmcheck: live selftest FAILED — planted livelock surfaced as %q, want liveness\n  %v\n",
			r.V.Kind, r.V.Err)
		return 1
	}
	rep := explore.Replay(sc, r.Reproducer, mutate)
	if rep.V == nil {
		fmt.Fprintf(os.Stderr, "asvmcheck: live selftest FAILED — shrunk reproducer does not replay\n")
		return 1
	}
	fmt.Printf("live selftest ok: planted livelock found in %d schedules, reproducer %q (%d choices)\n",
		r.Runs, explore.EncodeChoices(r.Reproducer), len(r.Reproducer))
	return 0
}

func printViolation(scenario string, v *explore.Violation, repro []int) {
	fmt.Printf("  scenario:   %s\n", scenario)
	fmt.Printf("  kind:       %s\n", v.Kind)
	fmt.Printf("  error:      %v\n", v.Err)
	fmt.Printf("  choices:    %s (%d points)\n", explore.EncodeChoices(explore.Ks(v.Choices)), len(v.Choices))
	fmt.Printf("  reproducer: %s\n", explore.EncodeChoices(repro))
	for _, nt := range v.Nodes {
		fmt.Printf("  node %d trace:\n", nt.Node)
		for _, ln := range nt.Lines {
			fmt.Printf("    %s\n", ln)
		}
	}
}
