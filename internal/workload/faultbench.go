// Package workload implements the paper's three measurement workloads:
// the basic page-fault latency microbenchmarks (Table 1, Figures 10/11),
// the mapped-file transfer benchmark (Table 2, Figures 12/13), and the
// EM3D application (Table 3). Every workload body programs against the
// portable app.Host API; this package supplies the simulator harness
// around it (cluster assembly, measurement, validation).
package workload

import (
	"fmt"
	"time"

	"asvm/internal/app"
	"asvm/internal/app/simhost"
	"asvm/internal/machine"
	"asvm/internal/vm"
)

// FaultScenario describes one Table 1 row.
type FaultScenario struct {
	Name string
	// Readers is the number of nodes holding read copies before the
	// measured fault.
	Readers int
	// Write selects a write fault (vs. read fault).
	Write bool
	// FaulterHasCopy makes the faulting node one of the readers (the
	// "write upgrade fault" of Figure 10).
	FaulterHasCopy bool
	// SecondReader measures the second read fault (page already clean at
	// the pager / owned by a reader) instead of the first.
	SecondReader bool
}

// Table1Scenarios returns the paper's seven rows.
func Table1Scenarios() []FaultScenario {
	return []FaultScenario{
		{Name: "write fault, 1 read copy", Readers: 1, Write: true},
		{Name: "write fault, 2 read copies", Readers: 2, Write: true},
		{Name: "write fault, 64 read copies", Readers: 64, Write: true},
		{Name: "write fault, 2 read copies, faulter has copy", Readers: 2, Write: true, FaulterHasCopy: true},
		{Name: "write fault, 64 read copies, faulter has copy", Readers: 64, Write: true, FaulterHasCopy: true},
		{Name: "read fault, first reader", Readers: 0, Write: false},
		{Name: "read fault, second reader", Readers: 0, Write: false, SecondReader: true},
	}
}

// FaultClusterSize returns the node count MeasureFault uses for a scenario
// (chaos runs build their own cluster of this size).
func FaultClusterSize(sc FaultScenario) int {
	n := sc.Readers + 3
	if n < 5 {
		n = 5
	}
	return n
}

// MeasureFault runs one scenario on a fresh cluster of the given system
// and returns the observed fault latency. Node roles: node 0 hosts the
// manager/home stack (remote from everyone else, like the paper's "XMM
// stack is remote" setup), node 1 is the initial writer — whose retained
// copy is the first "read copy" of the write scenarios, which is what
// makes the measured fault the *first* request by another node in the
// single-copy row — and the last node faults.
func MeasureFault(sys machine.System, sc FaultScenario, seed uint64) (time.Duration, error) {
	p := machine.DefaultParams(FaultClusterSize(sc))
	p.System = sys
	p.Seed = seed
	p.TrackData = true
	lat, _, err := measureFaultOn(machine.New(p), sc)
	return lat, err
}

// measureFaultOn runs one scenario on an existing cluster (which must have
// FaultClusterSize(sc) nodes) and also returns the benchmark region so the
// caller can validate protocol state.
func measureFaultOn(c *machine.Cluster, sc FaultScenario) (time.Duration, *machine.Region, error) {
	n := c.P.Nodes

	w, err := simhost.NewWorld(c, []simhost.Spec{{Name: "bench", Pages: 4}})
	if err != nil {
		return 0, nil, err
	}

	// Extra reading nodes beyond the writer's own copy (and beyond the
	// faulter's, when it holds one).
	extra := 0
	if sc.Write {
		extra = sc.Readers - 1
		if sc.FaulterHasCopy {
			extra--
		}
		if extra < 0 {
			extra = 0
		}
	}
	readerNodes := make([]int, extra)
	for i := range readerNodes {
		readerNodes[i] = 2 + i
	}
	faulterNode := n - 1
	if err := w.Prepare(1); err != nil {
		return 0, nil, err
	}
	if err := w.Prepare(readerNodes...); err != nil {
		return 0, nil, err
	}
	if err := w.Prepare(faulterNode); err != nil {
		return 0, nil, err
	}

	var lat time.Duration
	w.GoOn(1, "bench", func(h app.Host) error {
		// The initial writer dirties the page (and keeps its copy).
		if err := h.Write(0, 0, 1); err != nil {
			return err
		}
		// Establish additional read copies.
		for _, rn := range readerNodes {
			if _, err := h.On(rn).Read(0, 0); err != nil {
				return err
			}
		}
		faulter := h.On(faulterNode)
		if sc.FaulterHasCopy {
			if _, err := faulter.Read(0, 0); err != nil {
				return err
			}
		}
		if !sc.Write && sc.SecondReader {
			// The first reader's fault cleans the page; measure the next
			// node's read (its task springs into existence here, exactly
			// like the direct-driving era's mid-run TaskOn).
			if _, err := h.On(faulterNode-1).Read(0, 0); err != nil {
				return err
			}
		}
		t0 := h.Now()
		if sc.Write {
			if err := faulter.Write(0, 0, 2); err != nil {
				return err
			}
		} else {
			if _, err := faulter.Read(0, 0); err != nil {
				return err
			}
		}
		lat = h.Now() - t0
		return nil
	})
	if err := w.Run(); err != nil {
		return 0, nil, err
	}
	if lat == 0 {
		return 0, nil, fmt.Errorf("workload: scenario %q measured no fault", sc.Name)
	}
	return lat, w.Region(0), nil
}

// MeasureWriteFaultVsReaders sweeps Figure 10: write-fault (and upgrade)
// latency against the number of read copies.
func MeasureWriteFaultVsReaders(sys machine.System, readers []int, upgrade bool, seed uint64) ([]time.Duration, error) {
	out := make([]time.Duration, len(readers))
	for i, r := range readers {
		lat, err := MeasureFault(sys, FaultScenario{
			Name:           fmt.Sprintf("fig10 r=%d", r),
			Readers:        r,
			Write:          true,
			FaulterHasCopy: upgrade,
		}, seed)
		if err != nil {
			return nil, err
		}
		out[i] = lat
	}
	return out, nil
}

// MeasureChainFault reproduces Figure 11: a 128 KB region is initialized
// on node 0, a chain of copies spans `chain` additional nodes (one remote
// fork per node), and the last node faults in every page. Returned is the
// mean per-page fault latency.
func MeasureChainFault(sys machine.System, chain int, seed uint64) (time.Duration, error) {
	const regionPages = 16 // 128 KByte
	n := chain + 1
	if n < 2 {
		return 0, fmt.Errorf("workload: chain needs at least 1 hop")
	}
	p := machine.DefaultParams(n)
	p.System = sys
	p.Seed = seed
	p.TrackData = true
	c := machine.New(p)

	w, err := simhost.NewWorld(c, []simhost.Spec{
		{Name: "chain", Pages: regionPages, Nodes: []int{0}, Private: true},
	})
	if err != nil {
		return 0, err
	}

	var mean time.Duration
	w.GoOn(0, "bench", func(h app.Host) error {
		for i := 0; i < regionPages; i++ {
			if err := h.Write(0, int64(i*vm.PageSize), uint64(i+1)); err != nil {
				return err
			}
		}
		cur := h
		for i := 1; i <= chain; i++ {
			child, err := cur.Fork(i, fmt.Sprintf("child%d", i))
			if err != nil {
				return err
			}
			cur = child
		}
		t0 := cur.Now()
		for i := 0; i < regionPages; i++ {
			v, err := cur.Read(0, int64(i*vm.PageSize))
			if err != nil {
				return err
			}
			if v != uint64(i+1) {
				return fmt.Errorf("workload: chain content corrupted: page %d = %d", i, v)
			}
		}
		mean = (cur.Now() - t0) / regionPages
		return nil
	})
	if err := w.Run(); err != nil {
		return 0, err
	}
	return mean, nil
}
