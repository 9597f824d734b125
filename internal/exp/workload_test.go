package exp

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"asvm/internal/machine"
	"asvm/internal/vm"
)

func measureFile(run func(*machine.Cluster, int) (float64, *machine.Region, error), sys machine.System, nNodes int) (float64, error) {
	rate, _, err := run(machine.New(cellParams(sys, fileClusterSize(nNodes), 1)), nNodes)
	return rate, err
}

func runEM3D(sys machine.System, cfg EM3DConfig) (time.Duration, error) {
	d, _, err := RunEM3D(machine.New(em3dParams(sys, cfg)), cfg)
	return d, err
}

func TestTable1ScenarioCount(t *testing.T) {
	if n := len(table1Scenarios()); n != 7 {
		t.Fatalf("scenarios = %d, want 7 (paper Table 1 rows)", n)
	}
}

func TestFaultASVMBeatsXMMOnEveryRow(t *testing.T) {
	for _, sc := range table1Scenarios() {
		if sc.Readers > 4 {
			sc.Readers = 4 // keep the unit test fast; the bench runs full size
		}
		a, err := measureFault(machine.SysASVM, sc, 1)
		if err != nil {
			t.Fatalf("%s ASVM: %v", sc.Name, err)
		}
		x, err := measureFault(machine.SysXMM, sc, 1)
		if err != nil {
			t.Fatalf("%s XMM: %v", sc.Name, err)
		}
		if a >= x {
			t.Errorf("%s: ASVM %v not faster than XMM %v", sc.Name, a, x)
		}
	}
}

func TestFaultLatencyGrowsWithReaders(t *testing.T) {
	for _, sys := range []machine.System{machine.SysASVM, machine.SysXMM} {
		lat2, err := measureFault(sys, faultScenario{Readers: 2, Write: true}, 1)
		if err != nil {
			t.Fatal(err)
		}
		lat8, err := measureFault(sys, faultScenario{Readers: 8, Write: true}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if lat8 <= lat2 {
			t.Errorf("%v: 8 readers (%v) not slower than 2 (%v)", sys, lat8, lat2)
		}
	}
}

func TestMeasureFaultDeterministic(t *testing.T) {
	sc := faultScenario{Readers: 2, Write: true}
	a, err := measureFault(machine.SysASVM, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measureFault(machine.SysASVM, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestChainFaultGrowsLinearly(t *testing.T) {
	for _, sys := range []machine.System{machine.SysASVM, machine.SysXMM} {
		l1, err := measureChainFault(sys, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		l3, err := measureChainFault(sys, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if l3 <= l1 {
			t.Errorf("%v: chain 3 (%v) not slower than chain 1 (%v)", sys, l3, l1)
		}
	}
}

func TestChainASVMMuchFlatterThanXMM(t *testing.T) {
	slope := func(sys machine.System) time.Duration {
		l1, err := measureChainFault(sys, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		l5, err := measureChainFault(sys, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		return (l5 - l1) / 4
	}
	a, x := slope(machine.SysASVM), slope(machine.SysXMM)
	if x < 3*a {
		t.Fatalf("XMM per-hop (%v) should be several times ASVM's (%v)", x, a)
	}
}

func TestFileWriteRatesDeclineWithNodes(t *testing.T) {
	r1, err := measureFile(fileWriteRate, machine.SysASVM, 1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := measureFile(fileWriteRate, machine.SysASVM, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r1 <= 0 || r8 <= 0 {
		t.Fatalf("non-positive rates: %v %v", r1, r8)
	}
	if r8 >= r1 {
		t.Fatalf("per-node write rate should decline: 1 node %.2f, 8 nodes %.2f", r1, r8)
	}
}

func TestFileReadASVMSustainsXMMCollapses(t *testing.T) {
	a2, err := measureFile(fileReadRate, machine.SysASVM, 2)
	if err != nil {
		t.Fatal(err)
	}
	a8, err := measureFile(fileReadRate, machine.SysASVM, 8)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := measureFile(fileReadRate, machine.SysXMM, 2)
	if err != nil {
		t.Fatal(err)
	}
	x8, err := measureFile(fileReadRate, machine.SysXMM, 8)
	if err != nil {
		t.Fatal(err)
	}
	// ASVM's distributed manager sustains the rate; XMM collapses.
	if a8 < a2/2 {
		t.Errorf("ASVM read rate collapsed: %v -> %v", a2, a8)
	}
	if x8 > x2/2 {
		t.Errorf("XMM read rate did not collapse: %v -> %v", x2, x8)
	}
	if a8 < 3*x8 {
		t.Errorf("ASVM (%v) should dominate XMM (%v) at 8 nodes", a8, x8)
	}
}

func TestEM3DFeasibility(t *testing.T) {
	// 64000 cells * 224 B = ~14 MB: too much for one 16 MB node (9 MB
	// user), fine for two.
	cfg := DefaultEM3D(64000, 1, 10)
	if cfg.Feasible() {
		t.Fatal("14 MB dataset should not fit one 16 MB node")
	}
	cfg = DefaultEM3D(64000, 2, 10)
	if !cfg.Feasible() {
		t.Fatal("14 MB dataset should fit two nodes")
	}
	// 1024000 cells on 8 nodes: 229 MB > 72 MB: the paper's **.
	cfg = DefaultEM3D(1024000, 8, 10)
	if cfg.Feasible() {
		t.Fatal("1024000 cells should not fit 8 nodes")
	}
	cfg.MemMB = 0
	if !cfg.Feasible() {
		t.Fatal("unlimited memory is always feasible")
	}
}

func TestEM3DASVMSpeedsUpXMMSlowsDown(t *testing.T) {
	run := func(sys machine.System, nodes int) time.Duration {
		cfg := DefaultEM3D(64000, nodes, 2)
		if nodes == 1 {
			cfg.MemMB = 0
		}
		d, err := runEM3D(sys, cfg)
		if err != nil {
			t.Fatalf("%v nodes=%d: %v", sys, nodes, err)
		}
		return d
	}
	seq := run(machine.SysASVM, 1)
	a4 := run(machine.SysASVM, 4)
	x4 := run(machine.SysXMM, 4)
	if a4 >= seq {
		t.Errorf("ASVM 4 nodes (%v) not faster than sequential (%v)", a4, seq)
	}
	if x4 <= seq {
		t.Errorf("XMM 4 nodes (%v) not slower than sequential (%v) — the paper's slowdown", x4, seq)
	}
}

func TestEM3DDeterministic(t *testing.T) {
	cfg := DefaultEM3D(8000, 4, 2)
	a, err := runEM3D(machine.SysASVM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEM3D(machine.SysASVM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic EM3D: %v vs %v", a, b)
	}
}

func TestEM3DPlanCoversAllOwnPages(t *testing.T) {
	cfg := DefaultEM3D(8000, 4, 1)
	plans := planEM3D(cfg)
	if len(plans) != 4 {
		t.Fatalf("plans = %d", len(plans))
	}
	for n, p := range plans {
		if len(p.writeE) == 0 || len(p.writeH) == 0 {
			t.Errorf("node %d has empty write sets", n)
		}
		if p.updatesE+p.updatesH != cfg.Cells/cfg.Nodes {
			t.Errorf("node %d updates %d+%d != %d", n, p.updatesE, p.updatesH, cfg.Cells/cfg.Nodes)
		}
		// Read sets must include the node's own counterpart pages.
		if len(p.readE) < len(p.writeH) {
			t.Errorf("node %d readE misses own H pages", n)
		}
	}
	// With more than one node there must be some remote ghost pages.
	if len(plans[1].readE) == len(plans[1].writeH) {
		t.Error("no remote ghost pages in readE")
	}
}

func TestEM3DRejectsIndivisibleCells(t *testing.T) {
	cfg := DefaultEM3D(1000, 3, 1)
	if _, err := runEM3D(machine.SysASVM, cfg); err == nil {
		t.Fatal("1000 cells on 3 nodes should be rejected")
	}
}

// TestEM3DRejectsNonPositiveIters pins the iteration check: with no
// iteration there is no computation loop to time, and Table 3 would scale
// the empty measurement to NaN or a negative zero.
func TestEM3DRejectsNonPositiveIters(t *testing.T) {
	for _, iters := range []int{0, -2} {
		if _, err := runEM3D(machine.SysASVM, DefaultEM3D(8000, 4, iters)); err == nil {
			t.Errorf("%d iterations accepted", iters)
		}
	}
}

// TestMeasureWriteFaultVsReadersSweep checks Figure 10's shape: write
// faults get slower with more read copies, and an upgrade fault (the
// faulter holds a copy) is cheaper than a plain write fault.
func TestMeasureWriteFaultVsReadersSweep(t *testing.T) {
	sweep := func(readers int, upgrade bool) time.Duration {
		lat, err := measureFault(machine.SysASVM, faultScenario{Readers: readers, Write: true, FaulterHasCopy: upgrade}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	w1, w4, u4 := sweep(1, false), sweep(4, false), sweep(4, true)
	if w4 <= w1 {
		t.Fatalf("sweep = [%v %v], want increasing", w1, w4)
	}
	if u4 >= w4 {
		t.Fatalf("upgrade (%v) not cheaper than write fault (%v)", u4, w4)
	}
}

// TestEntryPointsRejectWrongSizeCluster pins the size contract: every
// workload entry point handed a cluster of the wrong size returns an
// error instead of panicking on a missing node.
func TestEntryPointsRejectWrongSizeCluster(t *testing.T) {
	sc := table1Scenarios()[0]
	em3d := DefaultEM3D(8000, 4, 1)
	crash := defaultCrash(4, 1, 1)
	runs := map[string]func(c *machine.Cluster) error{
		"faultLatency": func(c *machine.Cluster) error { _, _, err := faultLatency(c, sc); return err },
		"chainFaultLatency": func(c *machine.Cluster) error {
			_, _, err := chainFaultLatency(c, 3)
			return err
		},
		"fileWriteRate": func(c *machine.Cluster) error { _, _, err := fileWriteRate(c, 3); return err },
		"fileReadRate":  func(c *machine.Cluster) error { _, _, err := fileReadRate(c, 3); return err },
		"RunEM3D":       func(c *machine.Cluster) error { _, _, err := RunEM3D(c, em3d); return err },
		"crashChurn":    func(c *machine.Cluster) error { _, _, err := crashChurn(c, crash); return err },
	}
	// The right sizes are 5, 4, 4, 4, 4 and 4 nodes: 2 is too small for all
	// of them, 9 too large.
	for name, run := range runs {
		for _, nodes := range []int{2, 9} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s on %d nodes panicked: %v", name, nodes, r)
					}
				}()
				if err := run(machine.New(cellParams(machine.SysASVM, nodes, 1))); err == nil {
					t.Errorf("%s accepted a %d-node cluster", name, nodes)
				}
			}()
		}
	}
	if _, _, err := fileWriteRate(machine.New(cellParams(machine.SysASVM, 1, 1)), 0); err == nil {
		t.Error("fileWriteRate accepted 0 clients")
	}
}

// TestEM3DPlansPinned pins planEM3D's output for every Table 3 cell
// (three problem sizes on 1–64 nodes, seed 1) as one hash over each
// node's page lists and update counts: the dedupe of the sampled ghost
// pages may change how it is computed, never what it yields.
func TestEM3DPlansPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, cells := range []int{64000, 256000, 1024000} {
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
			for _, p := range planEM3D(DefaultEM3D(cells, n, 1)) {
				for _, pages := range [][]vm.PageIdx{p.readE, p.writeE, p.readH, p.writeH} {
					put(int64(len(pages)))
					for _, pg := range pages {
						put(int64(pg))
					}
				}
				put(int64(p.updatesE))
				put(int64(p.updatesH))
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x73f26551024bd021); got != want {
		t.Fatalf("plan hash = %#x, want %#x", got, want)
	}
}
