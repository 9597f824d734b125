package main

import (
	"fmt"
	"sort"
	"time"

	"asvm/internal/app"
	"asvm/internal/app/simhost"
	"asvm/internal/asvm"
	"asvm/internal/exp"
	"asvm/internal/machine"
	"asvm/internal/vm"
)

// scaleCellsPerRun is how many cells one run cycles through. A cell's wall
// time depends on its seed (the streams differ, so the event count does,
// by about 5 %); averaging over ten cells keeps that out of the run-to-run
// spread.
const scaleCellsPerRun = 10

// scaleCellSet derives the run's cells from the seed: the cell of
// exp.ScaleCells with the given machine size (1024 nodes for the workload,
// 64 for -smoke), under k seeds. Cell 0 carries the run's seed itself, so
// at seed 1 it is the recorded cell.
func scaleCellSet(seed uint64, nodes, k int) ([]exp.ScaleCell, error) {
	for _, c := range exp.ScaleCells(seed, false) {
		if c.Nodes != nodes || c.DynCacheSize != 0 {
			continue
		}
		cells := make([]exp.ScaleCell, k)
		for i := range cells {
			cells[i] = c
			cells[i].Seed = seed + uint64(i)*seedSalt
		}
		return cells, nil
	}
	return nil, fmt.Errorf("exp.ScaleCells has no default-cache %d-node cell", nodes)
}

// scaleRep is what one build+run+check of the cell measured. The phase
// fields are host time; everything below them is simulated and must be
// identical from rep to rep.
type scaleRep struct {
	cell                                                 int // index into the run's cell set
	wall, machineNew, world, prepare, genOps, run, check time.Duration

	sim scaleFigures
}

// scaleFigures are a rep's simulated results: none is derived from host
// time, so two reps of one cell must agree on every field.
type scaleFigures struct {
	Events     uint64
	Touches    int
	Faults     int     // touches with nonzero simulated latency
	FaultP50Ms float64 // virtual
	FaultP99Ms float64 // virtual
	MakespanMs float64 // virtual: engine clock at drain
	Ctr        [len(scaleCounters)]int64
}

// scaleCounters are the protocol counters summed over all nodes after the
// drain, read by name so a renamed counter reads as zero, not a build error.
var scaleCounters = [...]string{"msgs", "proto_transitions", "data_requests",
	"fwd_dynamic", "fwd_static", "fwd_global", "ring_scan_hops", "hop_escalations"}

func (f *scaleFigures) counter(name string) float64 {
	for i, n := range scaleCounters {
		if n == name {
			return float64(f.Ctr[i])
		}
	}
	panic("bench: not a scale counter: " + name)
}

// runScaleRep assembles the machine and the world, drives every node's
// generated stream, drains, and checks the sampled invariants — the body
// of exp.RunScaleCell, restated so each phase can be timed from outside.
func runScaleRep(cell exp.ScaleCell, tr *tracer, parent int) (scaleRep, error) {
	var r scaleRep
	t0 := time.Now()
	phase := func(name, layer string, d *time.Duration, fn func() error) error {
		id := tr.begin(parent, name, layer)
		p0 := time.Now()
		err := fn()
		*d = time.Since(p0)
		tr.end(id, nil)
		return err
	}

	var c *machine.Cluster
	phase("machine.New", "machine", &r.machineNew, func() error {
		p := machine.DefaultParams(cell.Nodes)
		p.Seed = cell.Seed
		c = machine.New(p)
		return nil
	})

	var w *simhost.World
	if err := phase("simhost.NewWorld", "simhost", &r.world, func() (err error) {
		specs := make([]simhost.Spec, cell.Objects)
		for o := range specs {
			idxs := make([]int, cell.Nodes)
			for i := range idxs {
				idxs[i] = (o + i) % cell.Nodes
			}
			specs[o] = simhost.Spec{Name: fmt.Sprintf("s%d", o), Pages: int64(cell.PagesPerObject), Nodes: idxs}
		}
		w, err = simhost.NewWorld(c, specs)
		return err
	}); err != nil {
		return r, err
	}

	if err := phase("World.Prepare", "simhost", &r.prepare, func() error {
		for n := 0; n < cell.Nodes; n++ {
			if err := w.Prepare(n); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return r, err
	}

	streams := make([][]exp.ScaleOp, cell.Nodes)
	phase("exp.GenScaleOps", "exp", &r.genOps, func() error {
		for n := range streams {
			streams[n] = exp.GenScaleOps(cell, n)
		}
		return nil
	})

	var lat []time.Duration // nonzero simulated touch latencies
	for n, ops := range streams {
		ops := ops
		w.GoOn(n, "scale", func(h app.Host) error {
			for _, op := range ops {
				switch op.Kind {
				case exp.OpOpen:
					if err := h.Open(op.Obj); err != nil {
						return err
					}
				case exp.OpClose:
					if err := h.Close(op.Obj); err != nil {
						return err
					}
				case exp.OpTouch:
					off := int64(op.Page * vm.PageSize)
					t0 := h.Now()
					if op.Write {
						if err := h.Write(op.Obj, off, 0); err != nil {
							return err
						}
					} else if _, err := h.Read(op.Obj, off); err != nil {
						return err
					}
					if d := h.Now() - t0; d > 0 {
						lat = append(lat, d)
					}
				}
			}
			return nil
		})
		for _, op := range ops {
			if op.Kind == exp.OpTouch {
				r.sim.Touches++
			}
		}
	}

	if err := phase("World.Run", "sim", &r.run, w.Run); err != nil {
		return r, err
	}
	r.sim.Events = c.Eng.Executed
	r.sim.MakespanMs = ms(c.Eng.Now())

	if err := phase("CheckInvariants", "asvm", &r.check, func() error {
		for o := 0; o < cell.Objects; o++ {
			reg := w.Region(o)
			var err error
			if cell.SamplePages > 0 {
				err = asvm.CheckInvariantsSampled(c.ASVMCluster(), reg.ASVMInfo(), cell.SamplePages, cell.Seed)
			} else {
				err = c.CheckInvariants(reg)
			}
			if err != nil {
				return fmt.Errorf("object %d: %w", o, err)
			}
		}
		return nil
	}); err != nil {
		return r, err
	}
	r.wall = time.Since(t0)

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sorted := make([]float64, len(lat))
	for i, d := range lat {
		sorted[i] = ms(d)
	}
	r.sim.Faults = len(lat)
	r.sim.FaultP50Ms = percentile(sorted, 50)
	r.sim.FaultP99Ms = percentile(sorted, 99)
	for _, nd := range c.ASVMs {
		for i, name := range scaleCounters {
			r.sim.Ctr[i] += nd.Ctr.Get(name)
		}
	}
	return r, nil
}

// seed1Scale1024 is the recorded result of the 1024-node cell at seed 1
// (BENCH_0008, `asvmbench -scale`): a change that moves any of these
// changed what is simulated, not how fast.
var seed1Scale1024 = struct {
	p50, p99 string
	hops     int64
	events   uint64
}{"5.02", "188.21", 165515, 882233}

func checkScaleSeed1(f scaleFigures, chk *checker) {
	want := seed1Scale1024
	chk.check(fmt.Sprintf("%.2f", f.FaultP50Ms) == want.p50 && fmt.Sprintf("%.2f", f.FaultP99Ms) == want.p99,
		"sim-scale1024: seed-1 fault p50/p99 %.2f/%.2f ms, record says %s/%s", f.FaultP50Ms, f.FaultP99Ms, want.p50, want.p99)
	chk.check(int64(f.counter("ring_scan_hops")) == want.hops,
		"sim-scale1024: seed-1 ring-scan hops %v, record says %d", f.counter("ring_scan_hops"), want.hops)
	chk.check(f.Events == want.events, "sim-scale1024: seed-1 events %d, record says %d", f.Events, want.events)
}

// checkRep holds rep n of a cell to the cell's first rep.
func checkRep(chk *checker, n int, got, first scaleFigures) {
	chk.check(got == first, "sim-scale1024: rep %d simulated %+v, the cell's first rep simulated %+v", n, got, first)
}

// scaleReps cycles through the cells until `seconds` have been measured
// (at least minReps reps), checking every rep's simulated figures against
// the first rep of the same cell.
func scaleReps(cells []exp.ScaleCell, seconds float64, minReps int, tr *tracer, chk *checker) ([]scaleRep, error) {
	var reps []scaleRep
	t0 := time.Now()
	for len(reps) < minReps || time.Since(t0).Seconds() < seconds {
		n := len(reps)
		id := tr.begin(0, fmt.Sprintf("rep%d", n+1), "bench")
		r, err := runScaleRep(cells[n%len(cells)], tr, id)
		tr.end(id, map[string]int64{"events": int64(r.sim.Events)})
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", n+1, err)
		}
		r.cell = n % len(cells)
		reps = append(reps, r)
		checkRep(chk, n+1, r.sim, reps[r.cell].sim)
	}
	return reps, nil
}

// simScale is the sim-scale1024 workload's untraced run.
func simScale(o options, chk *checker) (*metrics, error) {
	// Forty reps at least, whatever --seconds says: the p75 of rep time needs
	// ten samples beyond it, and a run that sometimes has them and sometimes
	// not would report two different statistics under one name.
	nodes, setups, minReps := 1024, 3, 4*scaleCellsPerRun
	if o.smoke {
		nodes, setups, minReps = 64, 1, scaleCellsPerRun
	}
	cells, err := scaleCellSet(o.seed, nodes, scaleCellsPerRun)
	if err != nil {
		return nil, err
	}

	// Set-up: one untimed rep, so the heap is at its working size and the
	// code is paged in before the first timed rep.
	var setup []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if _, err := runScaleRep(cells[0], nil, 0); err != nil {
			return nil, fmt.Errorf("sim-scale1024 warm-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	cpu0 := cpuTime()
	reps, err := scaleReps(cells, o.seconds, minReps, nil, chk)
	if err != nil {
		return nil, fmt.Errorf("sim-scale1024: %w", err)
	}
	cpu := cpuTime() - cpu0
	if o.seed == 1 && !o.smoke {
		checkScaleSeed1(reps[0].sim, chk)
	}

	// A batch is one rep (build + run + check); an op is one simulated touch
	// — a page access by the generated application, the same thing a mesh op
	// is. Events would be the engine's unit, but how many cheap ring-scan
	// events a cell has varies with its seed while its run time does not, so
	// events per second moves 8 % across seeds for no reason of speed
	// (sim.host_ns_per_event, on the seed's own cell, is the engine figure).
	// Each cell's reps give a median; the run reports the mean of the cells'
	// medians: the medians cut host noise, the mean the cells' differences.
	wall, rate := make([][]float64, len(cells)), make([][]float64, len(cells))
	var all []float64
	var touches float64
	for _, r := range reps {
		wall[r.cell] = append(wall[r.cell], r.wall.Seconds())
		rate[r.cell] = append(rate[r.cell], float64(r.sim.Touches)/r.run.Seconds())
		all = append(all, r.wall.Seconds())
		touches += float64(r.sim.Touches)
	}
	meanOfMedians := func(byCell [][]float64) float64 {
		var sum float64
		for _, v := range byCell {
			sum += median(v)
		}
		return sum / float64(len(byCell))
	}
	rep, tail := meanOfMedians(wall), summarize(all, 75)
	note := fmt.Sprintf("mean over %d seeded cells of the cell's median rep", len(cells))
	m := newMetrics()
	m.setN("setup_s", median(setup), len(setup), "median warm-up rep")
	m.setN("wall_s", rep, len(reps), note+": build + run + check")
	m.setN("ops_per_sec", meanOfMedians(rate), len(reps), "simulated touches per host second of World.Run, "+note)
	m.setN("op_p50_us", rep*1e6, len(reps), note)
	m.setN("op_p99_us", tail.Tail*1e6, tail.N, tail.tailLabel()+" rep, all cells")
	m.setN("cpu_us_per_op", us(cpu)/touches, int(touches), "CPU per simulated touch, all phases")
	return m, nil
}

// traceScale runs a few traced reps and returns the phase, engine and
// protocol figures of the cell.
func traceScale(o options, tr *tracer, chk *checker) (*metrics, error) {
	nodes, n := 1024, 3
	if o.smoke {
		nodes, n = 64, 1
	}
	cells, err := scaleCellSet(o.seed, nodes, 1) // the seed's own cell, so counts are exact
	if err != nil {
		return nil, err
	}
	reps, err := scaleReps(cells, 0, n, tr, chk)
	if err != nil {
		return nil, fmt.Errorf("sim-scale1024 traced: %w", err)
	}

	col := func(f func(r scaleRep) time.Duration) float64 {
		var v []float64
		for _, r := range reps {
			v = append(v, ms(f(r)))
		}
		return median(v)
	}
	f := reps[0].sim
	m := newMetrics()
	m.setN("machine.new_ms", col(func(r scaleRep) time.Duration { return r.machineNew }), len(reps), "median of reps")
	m.setN("simhost.world_ms", col(func(r scaleRep) time.Duration { return r.world }), len(reps), "")
	m.setN("simhost.prepare_ms", col(func(r scaleRep) time.Duration { return r.prepare }), len(reps), "")
	m.setN("exp.genops_ms", col(func(r scaleRep) time.Duration { return r.genOps }), len(reps), "")
	m.setN("asvm.check_invariants_ms", col(func(r scaleRep) time.Duration { return r.check }), len(reps), "")
	m.setN("sim.host_ns_per_event", 1e6*col(func(r scaleRep) time.Duration { return r.run })/float64(f.Events), len(reps), "World.Run span / events")
	m.set("sim.events_per_cell", float64(f.Events))
	m.setN("sim.fault_p50_ms", f.FaultP50Ms, f.Faults, "virtual")
	m.setN("sim.fault_p99_ms", f.FaultP99Ms, f.Faults, "virtual")
	m.set("sim.makespan_ms", f.MakespanMs)
	faults := float64(f.Faults)
	fwd := f.counter("fwd_dynamic") + f.counter("fwd_static") + f.counter("fwd_global")
	m.set("asvm.msgs_per_fault", f.counter("msgs")/faults)
	m.set("asvm.transitions_per_fault", f.counter("proto_transitions")/faults)
	m.set("asvm.fwd_dynamic_share", f.counter("fwd_dynamic")/fwd)
	m.set("asvm.fwd_static_share", f.counter("fwd_static")/fwd)
	m.set("asvm.fwd_global_share", f.counter("fwd_global")/fwd)
	m.set("asvm.ring_scan_hops", f.counter("ring_scan_hops"))
	m.set("asvm.hop_escalations", f.counter("hop_escalations"))
	return m, nil
}
