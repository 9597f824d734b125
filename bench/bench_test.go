package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if _, err := loadCatalogue(); err != nil {
		fmt.Fprintln(os.Stderr, "bench tests:", err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// The tail percentile is the highest with at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		p    float64
		ok   bool
	}{
		{1000, 99, 99, true}, // exactly ten beyond p99
		{999, 99, 95, true},  // nine beyond p99: fall back to p95
		{10000, 99.9, 99.9, true},
		{10000, 99, 99, true}, // never above what was asked for
		{44, 99, 75, true},    // a 20 s sim-scale1024 run
		{39, 99, 50, true},
		{20, 99, 50, true},
		{19, 99, 0, false}, // nine beyond the median: report the maximum
		{3, 99, 0, false},  // a sim-paper run
	} {
		p, ok := supportedTail(c.n, c.want)
		if p != c.p || ok != c.ok {
			t.Errorf("supportedTail(%d, %v) = %v, %v; want %v, %v", c.n, c.want, p, ok, c.p, c.ok)
		}
	}
	var v []float64
	for i := 1; i <= 1000; i++ {
		v = append(v, float64(i))
	}
	s := summarize(v, 99)
	if s.P50 != 500 || s.Tail != 990 || s.tailLabel() != "p99" {
		t.Errorf("summarize(1..1000) = %+v (%s)", s, s.tailLabel())
	}
	if s := summarize([]float64{3, 1, 2}, 99); s.Tail != 3 || s.tailLabel() != "max" {
		t.Errorf("summarize of three samples = %+v (%s), want the maximum", s, s.tailLabel())
	}
}

// The generators are byte-deterministic per seed and differ across seeds.
func TestGeneratorsDeterministic(t *testing.T) {
	kv := func(seed uint64) string {
		g := newKVGen(seed)
		var b strings.Builder
		for i := 0; i < 5000; i++ {
			fmt.Fprintf(&b, "%+v\n", g.next())
		}
		return b.String()
	}
	contend := func(seed uint64) string {
		var model [meshKeys]uint64
		var b strings.Builder
		for c := 0; c < 2; c++ {
			g := newContendGen(seed, c, &model)
			for i := 0; i < 5000; i++ {
				fmt.Fprintf(&b, "%+v\n", g.next())
			}
		}
		return b.String()
	}
	for name, gen := range map[string]func(uint64) string{"mesh-kv": kv, "mesh-contend": contend} {
		if gen(1) != gen(1) {
			t.Errorf("%s: two streams of seed 1 differ", name)
		}
		if gen(1) == gen(2) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", name)
		}
	}
}

// The two contend clients never touch each other's slots, and each
// alternates between its own two nodes.
func TestContendClientsDisjoint(t *testing.T) {
	var model [meshKeys]uint64
	owner := map[int]int{}
	for c := 0; c < 2; c++ {
		g := newContendGen(7, c, &model)
		for i := 0; i < 20000; i++ {
			op := g.next()
			if op.Node != c && op.Node != c+2 {
				t.Fatalf("client %d issued on node %d", c, op.Node)
			}
			if o, seen := owner[op.Key]; seen && o != c {
				t.Fatalf("key %d used by clients %d and %d", op.Key, o, c)
			}
			owner[op.Key] = c
		}
	}
	pages := map[int]map[int]bool{}
	for k, c := range owner {
		if pages[k%meshPages] == nil {
			pages[k%meshPages] = map[int]bool{}
		}
		pages[k%meshPages][c] = true
	}
	for p := 0; p < meshPages; p++ {
		if len(pages[p]) != 2 {
			t.Errorf("page %d is not shared by both clients", p)
		}
	}
}

// A value that is not what the model says is caught, by the stream and by
// the final sweep.
func TestPlantedWrongValueCaught(t *testing.T) {
	r, err := openMesh()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	g := newKVGen(1)
	var chk checker
	r.runKV(g, stopRule{ops: 500, batch: 100}, &chk, nil)
	r.finalSweep("test", &g.model, &chk)
	if chk.failed != 0 {
		t.Fatalf("clean stream failed %d checks: %v", chk.failed, chk.msgs)
	}

	g.model[5]++ // the store no longer holds what the model says
	var sweep checker
	r.finalSweep("test", &g.model, &sweep)
	if sweep.failed != meshNodes {
		t.Errorf("final sweep failed %d checks, want one per node (%d)", sweep.failed, meshNodes)
	}
	for k := range g.model {
		g.model[k] += 3
	}
	var stream checker
	r.runKV(g, stopRule{ops: 200, batch: 100}, &stream, nil)
	if stream.failed == 0 {
		t.Error("a stream of gets against a wrong model failed no check")
	}
}

// A rep or pass that differs from the first is caught.
func TestPlantedNonIdenticalRepCaught(t *testing.T) {
	first := scaleFigures{Events: 882233, Faults: 5919, FaultP50Ms: 5.02}
	var chk checker
	checkRep(&chk, 2, first, first)
	if chk.failed != 0 {
		t.Fatal("identical reps failed the check")
	}
	other := first
	other.Ctr[len(other.Ctr)-1]++
	checkRep(&chk, 3, other, first)
	if chk.failed != 1 {
		t.Error("a rep with one counter off by one was not caught")
	}
	checkPass(&chk, 2, []byte("Table 1\n"), []byte("Table 1 \n"))
	if chk.failed != 2 {
		t.Error("a pass with different text was not caught")
	}
}

// The committed record parses: Table 1's error against the paper is the
// figure the issue quotes, and stripping removes exactly the timing lines.
func TestRecordParses(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(filepath.Join(root, "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pct, err := table1ErrPct(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%.2f", pct); got != "17.97" {
		t.Errorf("Table 1 error = %s %%, want 17.97", got)
	}
	stripped := stripDoneLines(rec)
	if bytes.Contains(stripped, []byte(" done in ")) {
		t.Error("stripDoneLines left a timing line")
	}
	if n := bytes.Count(rec, []byte("\n")) - bytes.Count(stripped, []byte("\n")); n != len(artifacts) {
		t.Errorf("stripped %d lines, want one per artifact (%d)", n, len(artifacts))
	}
}

func TestSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "root", "bench")
	a := tr.begin(root, "a", "exp")
	tr.end(a, nil)
	b := tr.begin(root, "b", "sim")
	tr.end(b, map[string]int64{"events": 3})
	tr.end(root, nil)
	if err := validateSpans(tr.spans); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sub", "t.jsonl")
	if err := tr.flush(path); err != nil {
		t.Fatal(err)
	}
	back, err := readTrace(path)
	if err != nil || len(back) != 3 || back[2].Counts["events"] != 3 {
		t.Fatalf("read back %+v, %v", back, err)
	}

	spans := []span{
		{ID: 1, Name: "root", Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Layer: "exp", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Layer: "exp", Start: 40, End: 90},
	}
	self := selfTimeByLayer(spans)
	if self["bench"] != 20 || self["exp"] != 80 {
		t.Errorf("self time = %v, want bench=20ns exp=80ns", self)
	}
	spans[2].Parent = 9
	if validateSpans(spans) == nil {
		t.Error("a span whose parent does not exist passed validation")
	}

	var none *tracer // the untraced run
	none.end(none.begin(0, "x", "y"), nil)
}

// readTrace parses a trace file back.
func readTrace(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// smoke runs one workload at tiny sizes and returns the parsed result line.
func smoke(t *testing.T, o options) result {
	t.Helper()
	o.smoke, o.seed, o.seconds = true, 1, 0.5
	var out bytes.Buffer
	if code := run(o, &out); code != 0 {
		t.Fatalf("%+v: exit %d\n%s", o, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%+v: correct=%v attempted=%d failed=%d\n%s", o, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// sameNames checks that a result carries exactly the catalogue's names,
// each with the catalogue's unit and a value.
func sameNames(t *testing.T, what string, res result, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		mv, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is in BENCHMARK.json but was not reported", what, d.Name)
		case mv.Unit != d.Unit:
			t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", what, d.Name, mv.Unit, d.Unit)
		case mv.Value == nil:
			t.Errorf("%s: %s is null", what, d.Name)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", what, len(res.Metrics), len(defs))
	}
}

// Every workload's smoke run emits every end-to-end metric of
// BENCHMARK.json exactly once and nothing else, none of them zero.
func TestSmokeEndToEnd(t *testing.T) {
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	if len(workloads) != len(cat.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(cat.Workloads), len(workloads))
	}
	for _, w := range cat.workloadNames() {
		res := smoke(t, options{workload: w})
		sameNames(t, w, res, cat.EndToEnd)
		for name, mv := range res.Metrics {
			if mv.Value != nil && *mv.Value <= 0 {
				t.Errorf("%s: %s = %v; end-to-end metrics are never zero", w, name, *mv.Value)
			}
		}
	}
}

// The traced smoke run emits every per-layer metric; every trace file
// parses with every parent present; the sim-paper artifact spans add up to
// the pass; the budget rows add up to the f2 median.
func TestSmokeTraced(t *testing.T) {
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res := smoke(t, options{workload: "mesh-kv", trace: true, outDir: dir})
	sameNames(t, "traced run", res, cat.PerLayer)

	for _, w := range cat.workloadNames() {
		spans, err := readTrace(filepath.Join(dir, w+".seed1.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) < 2 {
			t.Errorf("%s: trace has %d spans", w, len(spans))
		}
		if err := validateSpans(spans); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		if w == "sim-paper" {
			var pass, parts int64
			for _, s := range spans {
				if s.Parent == 0 {
					pass = s.End - s.Start
				} else {
					parts += s.End - s.Start
				}
			}
			if math.Abs(float64(parts-pass)) > 0.02*float64(pass) {
				t.Errorf("sim-paper: artifact spans sum to %d ns, the pass took %d ns", parts, pass)
			}
		}
	}

	val := func(name string) float64 { return *res.Metrics[name].Value }
	sum := val("budget.inject_us") + val("budget.wire_us") + val("budget.codec_us") + val("budget.protocol_us")
	if f2 := val("mesh.op_p50_us.f2"); math.Abs(sum-f2) > 1e-6*f2 {
		t.Errorf("budget rows sum to %v us, mesh.op_p50_us.f2 is %v us", sum, f2)
	}
}

// A probe of code that has been deleted degrades to null with a reason; it
// does not fail the run. Simulated by handing asvmbench a flag it rejects.
func TestDeleteCandidateProbeDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/asvmbench")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildTool(root, t.TempDir(), "asvmbench")
	if err != nil {
		t.Fatal(err)
	}
	m := newMetrics()
	probe(m, []string{"sim.lanes_speedup"}, func() error {
		v, err := lanesSpeedup(bin, "-quick", "-no-such-engine-flag")
		if err == nil {
			m.set("sim.lanes_speedup", v)
		}
		return err
	})
	mv := m.byKey["sim.lanes_speedup"]
	if mv.Value != nil || !strings.Contains(mv.Why, "flag provided but not defined") {
		t.Errorf("sim.lanes_speedup = %+v; want null with asvmbench's complaint as the reason", mv)
	}
	var out bytes.Buffer
	m.print(&out)
	if !strings.Contains(out.String(), "null") {
		t.Errorf("report does not print null:\n%s", out.String())
	}
	line, err := finish(m, []metricDef{{Name: "sim.lanes_speedup"}}, &checker{attempted: 1})
	if err != nil || !strings.Contains(string(line), `"sim.lanes_speedup":{"value":null`) {
		t.Errorf("result line %s, %v", line, err)
	}
}

// BENCHMARK.json stays inside the driver's limits, and README.md names
// every workload and metric it lists.
func TestBenchmarkJSONContract(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json has no %q", k)
		}
		delete(top, k)
	}
	if len(top) != 0 {
		t.Errorf("BENCHMARK.json has extra keys: %v", top)
	}

	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join(root, "bench", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if cat.RunSeconds < 1 || cat.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", cat.RunSeconds)
	}
	if n := len(cat.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range cat.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if !bytes.Contains(readme, []byte("`"+w.Name+"`")) {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
	}
	if n := len(cat.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(cat.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), cat.EndToEnd...), cat.PerLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
		// README.md writes families as `prefix.{a,b}` or `prefix.*`.
		family := d.Name[:strings.LastIndex(d.Name, ".")+1]
		if !bytes.Contains(readme, []byte("`"+d.Name+"`")) && (family == "" || !bytes.Contains(readme, []byte("`"+family))) {
			t.Errorf("README.md does not mention %s", d.Name)
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, d := range cat.EndToEnd {
		if d.Bound <= 0 {
			t.Errorf("%s: an end-to-end metric needs a bound", d.Name)
		}
	}
}
