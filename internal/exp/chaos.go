package exp

import (
	"fmt"
	"io"
	"time"

	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/xport"
)

// This file is the chaos harness: it re-runs the paper's measurement
// workloads while the transport deterministically drops, duplicates and
// delays messages, and reports how gracefully the protocols degrade. Every
// cell drains its simulation and passes the ASVM global invariants —
// a slower answer is acceptable under faults, a corrupted one is not.

// ChaosRates is the default fault-intensity sweep: the drop probability per
// message. 0 runs the reliability layer with no faults (its pure overhead).
var ChaosRates = []float64{0, 0.001, 0.01}

// ChaosPlanFor derives the full fault plan from a drop rate: duplicates at
// half the drop rate, delays at twice it (delays are the common failure in
// real interconnects), with delays uniform in [200µs, 2ms] — spanning the
// retransmission timeout so some delayed messages race their own retries.
func ChaosPlanFor(rate float64) xport.FaultPlan {
	if rate == 0 {
		return xport.FaultPlan{}
	}
	return xport.FaultPlan{Default: xport.Rates{
		Drop:     rate,
		Dup:      rate / 2,
		Delay:    2 * rate,
		DelayMin: 200 * time.Microsecond,
		DelayMax: 2 * time.Millisecond,
	}}
}

// ChaosResult is one chaos or crash cell: the workload's own metric plus
// the fault and recovery counters that explain the degradation.
type ChaosResult struct {
	// Metric is the workload's figure of merit (seconds for fault latency
	// and EM3D, MB/s for the file benchmarks, completed operations for the
	// crash churn).
	Metric float64

	// Msgs is total transport traffic (both wire protocols).
	Msgs uint64
	// Injected faults.
	Dropped, Duplicated, Delayed uint64
	// Recovery work done by the reliability layer.
	Retransmits, DupsSuppressed, AcksSent, Nacks uint64

	// RingScanHops counts global ring-scan forwarding hops — the O(n)
	// fallback the hint caches exist to avoid. A healthy run keeps it near
	// zero; faults and crashes push requests onto the ring.
	RingScanHops int64

	// Crash-stop degradation (crash-sweep cells; all zero on crash-free
	// runs). Crashes/Restarts are executed plan fates; the rest aggregate
	// the protocol counters across nodes: faults aborted with typed
	// errors, faults re-driven past a dead peer, ownership and dirty
	// contents that died with a node, surviving read copies dropped, and
	// forwarding hints evicted.
	Crashes, Restarts int
	FaultsAborted     int64
	FaultRedrives     int64
	OwnershipLost     int64
	PagesLost         int64
	CopiesDropped     int64
	HintEvictions     int64
	PeersDowned       uint64
}

// chaosWorkload is one workload body run on a chaos cluster: it returns the
// workload's metric and the region to validate.
type chaosWorkload func(c *machine.Cluster) (float64, *machine.Region, error)

// runChaos is the one place a chaos cluster is built: p's workload
// configuration with fault injection below and the reliability layer
// above. It runs the workload, checks the ASVM global invariants on the
// drained cluster and gathers the counters.
func runChaos(p machine.Params, plan xport.FaultPlan, run chaosWorkload) (ChaosResult, error) {
	p.Fault = plan
	p.Reliable = true
	c := machine.New(p)
	metric, r, err := run(c)
	if err != nil {
		return ChaosResult{}, err
	}
	if err := c.CheckInvariants(r); err != nil {
		return ChaosResult{}, err
	}
	res := ChaosResult{Metric: metric, Msgs: c.Wire.Msgs}
	if f := c.FaultTR; f != nil {
		res.Dropped, res.Duplicated, res.Delayed = f.Dropped, f.Duplicated, f.Delayed
	}
	if rel := c.RelTR; rel != nil {
		res.Retransmits, res.DupsSuppressed = rel.Retransmits, rel.DupsSuppressed
		res.AcksSent, res.Nacks = rel.AcksSent, rel.Nacks
		res.PeersDowned = rel.PeersDowned
	}
	res.Crashes, res.Restarts = c.CrashStats.Crashes, c.CrashStats.Restarts
	// The dying nodes' own in-flight faults, failed by the kernel at the
	// crash instant, count as aborted alongside the survivors' typed
	// failures below.
	res.FaultsAborted += int64(c.CrashStats.FaultsAborted)
	for _, nd := range c.ASVMs {
		res.FaultsAborted += nd.Ctr.V[sim.CtrFaultsAborted]
		res.FaultRedrives += nd.Ctr.V[sim.CtrFaultRedrives]
		res.OwnershipLost += nd.Ctr.V[sim.CtrOwnershipLost]
		res.PagesLost += nd.Ctr.V[sim.CtrPagesLost]
		res.CopiesDropped += nd.Ctr.V[sim.CtrCopiesDropped]
		res.HintEvictions += nd.Ctr.V[sim.CtrHintEvictions]
		res.RingScanHops += nd.Ctr.V[sim.CtrRingScanHops]
	}
	return res, nil
}

// chaosCell is one (workload, rate) grid point: the workload runs on a
// chaos cluster built from params.
type chaosCell struct {
	workload string
	unit     string
	rate     float64
	params   machine.Params
	run      chaosWorkload
}

// chaosCells builds the sweep grid: every workload crossed with every rate,
// grouped by workload so each group's zero-rate row is its baseline.
func chaosCells(rates []float64, seed uint64, quick bool) []chaosCell {
	scs := table1Scenarios()
	fileNodes := 4
	em3d := DefaultEM3D(64000, 4, 3)
	if quick {
		scs = scs[:3]
		fileNodes = 2
		em3d = DefaultEM3D(8000, 2, 2)
		em3d.MemMB = 8 // keep paging pressure despite the small dataset
	}

	var cells []chaosCell
	add := func(name, unit string, p machine.Params, run chaosWorkload) {
		for _, rate := range rates {
			cells = append(cells, chaosCell{workload: name, unit: unit, rate: rate, params: p, run: run})
		}
	}
	for _, sc := range scs {
		sc := sc
		p := cellParams(machine.SysASVM, faultClusterSize(sc), seed)
		p.TrackData = true
		add("fault: "+sc.Name, "ms", p, func(c *machine.Cluster) (float64, *machine.Region, error) {
			lat, r, err := faultLatency(c, sc)
			return lat.Seconds(), r, err
		})
	}
	fileParams := cellParams(machine.SysASVM, fileClusterSize(fileNodes), seed)
	add(fmt.Sprintf("filebench write, %d nodes", fileNodes), "MB/s", fileParams,
		func(c *machine.Cluster) (float64, *machine.Region, error) {
			return fileWriteRate(c, fileNodes)
		})
	add(fmt.Sprintf("filebench read, %d nodes", fileNodes), "MB/s", fileParams,
		func(c *machine.Cluster) (float64, *machine.Region, error) {
			return fileReadRate(c, fileNodes)
		})
	add(fmt.Sprintf("em3d %dc/%dn/%di", em3d.Cells, em3d.Nodes, em3d.Iters), "s", em3dParams(machine.SysASVM, em3d),
		func(c *machine.Cluster) (float64, *machine.Region, error) {
			d, r, err := RunEM3D(c, em3d)
			return d.Seconds(), r, err
		})
	return cells
}

// chaosMetric renders a result's metric in its workload's unit.
func chaosMetric(r ChaosResult, unit string) string {
	switch unit {
	case "ms":
		return fmt.Sprintf("%.2f ms", r.Metric*1e3)
	case "s":
		return fmt.Sprintf("%.2f s", r.Metric)
	default:
		return fmt.Sprintf("%.2f %s", r.Metric, unit)
	}
}

// chaosDelta renders the metric's change against the same workload's
// zero-fault baseline. For latencies (ms, s) positive is slower; for
// throughput (MB/s) the sign is flipped so "+" always means degradation.
func chaosDelta(r, base ChaosResult, unit string) string {
	if base.Metric == 0 {
		return "-"
	}
	pct := (r.Metric - base.Metric) / base.Metric * 100
	if unit == "MB/s" {
		pct = -pct
	}
	return fmt.Sprintf("%+.1f%%", pct)
}

// Chaos runs the degradation sweep: every workload at every fault rate,
// each cell an independent seeded simulation validated by the ASVM global
// invariants after drain. The report shows the workload metric, its
// degradation vs. the zero-fault run, and the fault/recovery counters that
// explain it (retransmissions track drops; suppressed duplicates track
// dups plus retransmissions whose original survived).
func Chaos(w io.Writer, rates []float64, seed uint64, workers int, quick bool) error {
	cells := chaosCells(rates, seed, quick)
	results, err := RunCells(workers, len(cells), func(i int) (ChaosResult, error) {
		c := cells[i]
		res, err := runChaos(c.params, ChaosPlanFor(c.rate), c.run)
		if err != nil {
			return ChaosResult{}, fmt.Errorf("chaos %q drop=%.3f%%: %w", c.workload, c.rate*100, err)
		}
		return res, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Chaos sweep: degradation under deterministic message drop/dup/delay")
	fmt.Fprintln(w, "(every cell drained and invariant-checked; drop rate shown, dup = drop/2, delay = 2*drop)")
	fmt.Fprintf(w, "%-42s %8s %12s %8s %8s %6s %6s %6s %7s %7s %7s\n",
		"workload", "drop", "metric", "vs 0", "msgs", "drop", "dup", "delay", "rexmit", "supprs", "ringsc")
	nRates := len(rates)
	for i, c := range cells {
		r := results[i]
		base := results[i-i%nRates] // first rate in this workload's group
		delta := chaosDelta(r, base, c.unit)
		if i%nRates == 0 {
			delta = "-"
		}
		fmt.Fprintf(w, "%-42s %7.2f%% %12s %8s %8d %6d %6d %6d %7d %7d %7d\n",
			c.workload, c.rate*100, chaosMetric(r, c.unit), delta,
			r.Msgs, r.Dropped, r.Duplicated, r.Delayed, r.Retransmits, r.DupsSuppressed,
			r.RingScanHops)
	}
	return nil
}
