package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"asvm/internal/exp"
)

// sweeps are the parameter grids of one artifact pass. fullSweeps repeats
// what `asvmbench -exp all` runs by default, quickSweeps what -quick runs;
// cmd/asvmbench keeps them as locals, so they are restated here.
type sweeps struct {
	nodes, readers, chains, em3dSizes, em3dNodes []int
	iters                                        int
}

var (
	fullSweeps = sweeps{
		nodes:     []int{1, 2, 4, 8, 16, 32, 64},
		readers:   []int{1, 2, 4, 8, 16, 32, 64},
		chains:    []int{1, 2, 4, 8, 12, 16},
		em3dSizes: []int{64000, 256000, 1024000},
		em3dNodes: []int{1, 2, 4, 8, 16, 32, 64},
		iters:     10,
	}
	quickSweeps = sweeps{
		nodes:     []int{1, 2, 4, 8},
		readers:   []int{1, 2, 8},
		chains:    []int{1, 2, 4},
		em3dSizes: []int{64000},
		em3dNodes: []int{1, 2, 4, 8},
		iters:     3,
	}
)

// artifact is one call into the experiment harness.
type artifact struct {
	name   string // span name
	metric string // per-layer metric the span's time lands in
	run    func(w io.Writer, sw sweeps, seed uint64, workers int) error
}

// artifacts lists the calls of a pass in asvmbench's order.
var artifacts = []artifact{
	{"table1", "exp.table1_s", func(w io.Writer, sw sweeps, seed uint64, workers int) error {
		return exp.Table1(w, seed, workers)
	}},
	{"fig10", "exp.fig10_s", func(w io.Writer, sw sweeps, seed uint64, workers int) error {
		return exp.Figure10(w, sw.readers, seed, workers)
	}},
	{"fig11", "exp.fig11_s", func(w io.Writer, sw sweeps, seed uint64, workers int) error {
		return exp.Figure11(w, sw.chains, seed, workers)
	}},
	{"table2", "exp.table2_s", func(w io.Writer, sw sweeps, seed uint64, workers int) error {
		return exp.Table2(w, sw.nodes, seed, workers)
	}},
	{"table3", "exp.table3_s", func(w io.Writer, sw sweeps, seed uint64, workers int) error {
		return exp.Table3(w, sw.em3dSizes, sw.em3dNodes, sw.iters, seed, workers)
	}},
	{"dist", "exp.dist_s", func(w io.Writer, sw sweeps, seed uint64, workers int) error {
		return exp.Distribution(w, 8, 16, 4, seed, workers)
	}},
	{"ablation-forwarding", "exp.ablations_s", func(w io.Writer, sw sweeps, seed uint64, workers int) error {
		return exp.AblationForwarding(w, 8, 6, seed, workers)
	}},
	{"ablation-transport", "exp.ablations_s", func(w io.Writer, sw sweeps, seed uint64, workers int) error {
		return exp.AblationTransport(w, seed, workers)
	}},
	{"ablation-internode-paging", "exp.ablations_s", func(w io.Writer, sw sweeps, seed uint64, workers int) error {
		return exp.AblationInternodePaging(w, seed, workers)
	}},
	{"ablation-chain-threads", "exp.ablations_s", func(w io.Writer, sw sweeps, seed uint64, workers int) error {
		return exp.AblationChainThreads(w, seed, workers)
	}},
}

// paperPass regenerates every artifact once, single-worker, and returns
// the text asvmbench would print with its "[... done in ...]" lines
// removed. Each call is a span under parent.
func paperPass(sw sweeps, seed uint64, tr *tracer, parent int) ([]byte, error) {
	var out bytes.Buffer
	for _, a := range artifacts {
		id := tr.begin(parent, a.name, "exp")
		err := a.run(&out, sw, seed, 1)
		tr.end(id, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		out.WriteByte('\n') // the blank line asvmbench prints after each artifact
	}
	return out.Bytes(), nil
}

// stripDoneLines removes asvmbench's wall-clock lines from a record.
func stripDoneLines(b []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("[")) && bytes.Contains(line, []byte(" done in ")) {
			continue
		}
		out.Write(line)
	}
	return out.Bytes()
}

// table1ErrPct is the mean |simulated − paper| / paper over the 14 cells
// of Table 1, in percent, parsed from the table as printed.
func table1ErrPct(pass []byte) (float64, error) {
	lines := strings.Split(string(pass), "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "Fault Type") {
			start = i + 1
			break
		}
	}
	if start < 0 {
		return 0, fmt.Errorf("no Table 1 header in the pass output")
	}
	var sum float64
	cells := 0
	for _, l := range lines[start:] {
		f := strings.Fields(l)
		if len(f) < 5 {
			break
		}
		var v [4]float64
		for i := range v {
			x, err := strconv.ParseFloat(f[len(f)-4+i], 64)
			if err != nil {
				return 0, fmt.Errorf("Table 1 row %q: %w", l, err)
			}
			v[i] = x
		}
		sum += math.Abs(v[0]-v[1])/v[1] + math.Abs(v[2]-v[3])/v[3]
		cells += 2
	}
	if cells != 14 {
		return 0, fmt.Errorf("Table 1 has %d cells, want 14", cells)
	}
	return 100 * sum / float64(cells), nil
}

// paperRun is what the timed passes of one run produced.
type paperRun struct {
	passWall []float64 // seconds
	cpu      time.Duration
	wall     time.Duration
	first    []byte // the first pass's text
}

// runPaperPasses repeats full passes until at least `seconds` have been
// measured (and twice at least, so that passes can be compared), checking
// every pass's text against the first.
func runPaperPasses(sw sweeps, seed uint64, seconds float64, chk *checker) (paperRun, error) {
	var r paperRun
	cpu0, t0 := cpuTime(), time.Now()
	for len(r.passWall) < 2 || time.Since(t0).Seconds() < seconds {
		p0 := time.Now()
		text, err := paperPass(sw, seed, nil, 0)
		if err != nil {
			return r, err
		}
		r.passWall = append(r.passWall, time.Since(p0).Seconds())
		if r.first == nil {
			r.first = text
		}
		checkPass(chk, len(r.passWall), text, r.first)
	}
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	return r, nil
}

// checkPass holds pass n to the first pass: same seed, same bytes.
func checkPass(chk *checker, n int, text, first []byte) {
	chk.check(bytes.Equal(text, first), "sim-paper: pass %d printed different text than pass 1", n)
}

// checkAgainstRecord compares a seed-1 full pass with results_full.txt.
func checkAgainstRecord(text []byte, chk *checker) {
	root, err := repoRoot()
	if !chk.check(err == nil, "sim-paper: %v", err) {
		return
	}
	rec, err := os.ReadFile(filepath.Join(root, "results_full.txt"))
	if !chk.check(err == nil, "sim-paper: reading the committed record: %v", err) {
		return
	}
	chk.check(bytes.Equal(text, stripDoneLines(rec)),
		"sim-paper: seed-1 pass differs from results_full.txt (%d vs %d bytes)", len(text), len(stripDoneLines(rec)))
}

// simPaper is the sim-paper workload's untraced run.
func simPaper(o options, chk *checker) (*metrics, error) {
	full, setups := fullSweeps, 5
	if o.smoke {
		full, setups = quickSweeps, 1
	}

	// Set-up: a quick-sweep pass, which pages in every code path and grows
	// the heap to its working size. Repeated so setup_s is a median.
	var setup []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if _, err := paperPass(quickSweeps, o.seed, nil, 0); err != nil {
			return nil, fmt.Errorf("sim-paper warm-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	r, err := runPaperPasses(full, o.seed, o.seconds, chk)
	if err != nil {
		return nil, fmt.Errorf("sim-paper: %w", err)
	}
	if o.seed == 1 && !o.smoke {
		checkAgainstRecord(r.first, chk)
	}

	// A batch is one pass; an op is one artifact call.
	pass := summarize(r.passWall, 99)
	ops := float64(len(r.passWall) * len(artifacts))
	m := newMetrics()
	m.setN("setup_s", median(setup), len(setup), "median quick-sweep warm-up pass")
	m.setN("wall_s", pass.P50, pass.N, "median full pass")
	m.setN("ops_per_sec", ops/r.wall.Seconds(), int(ops), "artifact calls per second")
	m.setN("op_p50_us", pass.P50*1e6, pass.N, "median full pass")
	m.setN("op_p99_us", pass.Tail*1e6, pass.N, pass.tailLabel()+" full pass")
	m.setN("cpu_us_per_op", us(r.cpu)/ops, int(ops), "CPU per artifact call")
	return m, nil
}

// tracePaper runs one traced full pass and returns the per-artifact
// figures. The spans must add up to the pass: the acceptance bound is 2 %.
func tracePaper(o options, tr *tracer, chk *checker) (*metrics, error) {
	sw := fullSweeps
	if o.smoke {
		sw = quickSweeps
	}
	root := tr.begin(0, "pass", "bench")
	text, err := paperPass(sw, o.seed, tr, root)
	passWall := tr.end(root, nil)
	if err != nil {
		return nil, fmt.Errorf("sim-paper traced pass: %w", err)
	}

	byMetric := map[string]time.Duration{}
	var sum time.Duration
	for _, s := range tr.spans {
		if s.Parent != root {
			continue
		}
		d := time.Duration(s.End - s.Start)
		sum += d
		for _, a := range artifacts {
			if a.name == s.Name {
				byMetric[a.metric] += d
			}
		}
	}
	chk.check(math.Abs(float64(sum-passWall)) <= 0.02*float64(passWall),
		"sim-paper: artifact spans sum to %v, traced pass took %v", sum, passWall)

	m := newMetrics()
	for _, name := range []string{"exp.table1_s", "exp.fig10_s", "exp.fig11_s", "exp.table2_s",
		"exp.table3_s", "exp.dist_s", "exp.ablations_s"} {
		m.set(name, byMetric[name].Seconds())
	}
	errPct, err := table1ErrPct(text)
	if chk.check(err == nil, "sim-paper: %v", err) {
		m.set("exp.table1_err_pct", errPct)
	} else {
		m.null("exp.table1_err_pct", err.Error())
	}
	return m, nil
}
