// Package explore is a schedule-exploration subsystem — a small stateless
// model checker for the ASVM protocol machines. It re-runs bounded
// scenarios under a sim.Chooser that perturbs the orders the protocol must
// not depend on (same-timestamp event dispatch, message delivery latency,
// fault-injected message fates) and checks safety at every busy-bit
// quiesce, at drain, and for termination.
//
// Every run is identified by its *choice string*: the sequence of
// alternatives taken at each choice point, base36-encoded. Choices beyond
// the string's end default to alternative 0 (the unperturbed schedule), so
// a choice string is simultaneously a schedule, a reproducer, and a node
// in the search tree. Three drivers share this representation:
//
//   - DFS enumerates all schedules whose first MaxChoices points stay
//     within MaxBranch alternatives (exhaustive on bounded scenarios);
//   - Walk samples schedules uniformly at random from a seed;
//   - Replay re-executes one choice string exactly.
//
// On a failing run the subsystem reports the violation, the per-node
// protocol traces, and a reproducer shrunk by Shrink.
package explore

import (
	"fmt"

	"asvm/internal/asvm"
	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// StepBound caps events per run: a bounded scenario finishes in well under
// a hundred thousand events, so hitting the bound means livelock (e.g. a
// forwarding loop that a perturbed schedule failed to break).
const StepBound = 2_000_000

// RetransmitBound caps the reliability layer's total retransmissions per
// run. A bounded scenario retransmits at most a few hundred times even
// under hostile fault fates; blowing through this bound means a retransmit
// storm — a frame that can never be acknowledged yet is never declared
// dead, the transport-level flavor of livelock.
const RetransmitBound = 10_000

// Choice is one resolved choice point: its kind, how many alternatives the
// engine offered, and which was taken.
type Choice struct {
	Kind sim.ChoiceKind
	N    int
	K    int
}

// NodeTrace is one node's retained protocol trace at the moment of failure.
type NodeTrace struct {
	Node  int
	Lines []string
}

// Violation describes a failing run.
type Violation struct {
	// Kind is "invariant", "deadlock", "step-bound", "liveness", "workload"
	// or "panic".
	Kind string
	Err  error
	// Choices is the full recorded choice trace of the failing run (its
	// encoding replays the failure exactly).
	Choices []Choice
	// Nodes holds the per-node ring-buffer traces captured at failure.
	Nodes []NodeTrace
}

// String implements fmt.Stringer.
func (v *Violation) String() string {
	return fmt.Sprintf("%s: %v [choices %s]", v.Kind, v.Err, EncodeChoices(Ks(v.Choices)))
}

// Outcome is the result of executing one schedule.
type Outcome struct {
	// Choices is the recorded trace, failing or clean.
	Choices []Choice
	// V is nil when the run completed cleanly.
	V *Violation
	// Cover is the run's protocol transition coverage, merged across all
	// nodes — which (state, event) cells of the asvm table the schedule
	// actually exercised.
	Cover asvm.Coverage
}

// Ks projects a choice trace to its taken alternatives.
func Ks(t []Choice) []int {
	out := make([]int, len(t))
	for i, c := range t {
		out[i] = c.K
	}
	return out
}

// Mutate optionally perturbs a freshly built cluster before the workload
// starts — mutation tests use it to re-enable known-bad behaviours via
// asvm.Node.Hooks.
type Mutate func(*machine.Cluster)

// runOne executes scenario sc under one schedule: the first len(prefix)
// choice points answer from prefix, later ones take 0 (rng nil) or a
// uniformly random alternative. It never panics: failures of any kind are
// folded into the returned Outcome.
func runOne(sc *Scenario, prefix []int, rng *sim.RNG, mutate Mutate) Outcome {
	ch := &recChooser{prefix: prefix, rng: rng}
	var vioKind string
	var vioErr error
	report := func(kind string, err error) {
		if vioErr == nil {
			vioKind, vioErr = kind, err
		}
	}

	c := machine.New(sc.Params())
	if mutate != nil {
		mutate(c)
	}
	for _, nd := range c.ASVMs {
		nd.Trace.Enable()
	}

	var regions []*machine.Region
	drained := false
	func() {
		// Protocol panics are findings, not crashes — whether raised in an
		// event handler (stray acks, transport misuse) or on a proc's stack
		// (an illegal (state, event) reached from Kernel.Fault, workload
		// code): the engine re-raises a proc's panic in RunMax's caller.
		defer func() {
			if r := recover(); r != nil {
				report("panic", fmt.Errorf("panic: %v", r))
			}
		}()
		c.Eng.SetChooser(ch)
		regions = sc.Run(c, func(err error) { report("workload", err) })
		for _, nd := range c.ASVMs {
			nd.MidCheck = func(info *asvm.DomainInfo, idx vm.PageIdx) {
				// Record only the first finding; the run still drains so
				// parked procs unwind instead of leaking.
				if vioErr != nil {
					return
				}
				if err := asvm.CheckPageInvariants(c.ASVMCluster(), info, idx); err != nil {
					report("invariant", fmt.Errorf("%v\n%s", err, asvm.DumpPage(c.ASVMCluster(), info, idx)))
				}
			}
		}
		drained = c.Eng.RunMax(StepBound)
	}()

	if vioErr == nil && !drained {
		report("step-bound", fmt.Errorf("run exceeded %d events (livelock?)", StepBound))
	}
	// Liveness: the run drained, so every fault a surviving node started
	// must have resolved — granted, or failed with a typed error — and the
	// reliability layer must not have ground through a retransmit storm.
	// Checked before the generic deadlock verdict: a proc parked on a
	// never-resolving fault is a liveness bug first, and the fault dump
	// says which page and why.
	if vioErr == nil && c.RelTR != nil && c.RelTR.Retransmits > RetransmitBound {
		report("liveness", fmt.Errorf("%d retransmissions (bound %d): retransmit storm",
			c.RelTR.Retransmits, RetransmitBound))
	}
	if vioErr == nil {
		for _, r := range regions {
			if stuck := asvm.OutstandingFaults(c.ASVMCluster(), r.ASVMInfo()); len(stuck) > 0 {
				report("liveness", fmt.Errorf("%d faults never granted nor typed-failed (pages %v)\n%s",
					len(stuck), stuck, asvm.DumpPage(c.ASVMCluster(), r.ASVMInfo(), stuck[0])))
				break
			}
		}
	}
	if vioErr == nil && c.Eng.LiveProcs() > 0 {
		report("deadlock", fmt.Errorf("%d procs blocked with no events pending", c.Eng.LiveProcs()))
	}
	if vioErr == nil {
		for _, r := range regions {
			if err := c.CheckInvariants(r); err != nil {
				report("invariant", err)
				break
			}
		}
	}

	out := Outcome{Choices: ch.trace}
	for _, nd := range c.ASVMs {
		out.Cover.Merge(&nd.Cover)
	}
	if vioErr != nil {
		out.V = &Violation{
			Kind:    vioKind,
			Err:     vioErr,
			Choices: ch.trace,
			Nodes:   snapshotTraces(c),
		}
	}
	// The verdicts and traces are taken. Procs still parked — on every
	// deadlock, step-bound, crash-fate and panic finding — are unwound now:
	// left alone, each pins its goroutine and, through its stack, c.
	c.Eng.KillProcs()
	return out
}

// Replay executes exactly the schedule described by ks and returns the
// outcome (clean or failing). Two replays of the same choice string are
// bit-identical.
func Replay(sc *Scenario, ks []int, mutate Mutate) Outcome {
	return runOne(sc, ks, nil, mutate)
}

func snapshotTraces(c *machine.Cluster) []NodeTrace {
	var out []NodeTrace
	for i, nd := range c.ASVMs {
		if lines := nd.Trace.Lines(); len(lines) > 0 {
			out = append(out, NodeTrace{Node: i, Lines: lines})
		}
	}
	return out
}
