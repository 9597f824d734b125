// Command bench is the repository's benchmark: four workloads (two on the
// deterministic simulator, two on a real TCP mesh), six gated end-to-end
// metrics, and a traced run that reports every layer's own figures. It
// measures from outside, by timing calls into each layer's public
// functions. README.md is the catalogue; BENCHMARK.json the contract.
//
//	bash bench/run.sh --workload mesh-kv --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload mesh-kv --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh --layers
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. The exit code is non-zero when a run could not finish
// or a correctness check failed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	layers   bool
	extras   bool
	outDir   string
}

// workloads maps each workload to its end-to-end run and its traced slice.
var workloads = map[string]struct {
	run   func(options, *checker) (*metrics, error)
	trace func(options, *tracer, *checker) (*metrics, error)
}{
	"sim-paper":     {simPaper, tracePaper},
	"sim-scale1024": {simScale, traceScale},
	"mesh-kv":       {meshKV, traceKV},
	"mesh-contend":  {meshContend, traceContend},
}

// watchdogLimit bounds one workload (or one traced slice). dsm's own
// backstop is a 30 s timeout per op; a stuck mesh must fail here, loudly,
// not sit out a series of those.
const watchdogLimit = 120 * time.Second

// watchdog dumps every goroutine and exits if stop is not called in time.
func watchdog(what string) (stop func()) {
	t := time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running after %v; goroutines:\n", what, watchdogLimit)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	return func() { t.Stop() }
}

// hostFacts prints what a reader needs to compare two runs' figures.
func hostFacts(w io.Writer) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, strings.TrimSpace(string(kernel)), time.Now().UTC().Format(time.RFC3339))
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "sim-paper | sim-scale1024 | mesh-kv | mesh-contend")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed part measures")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, which reports every per-layer metric")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes (seconds at most 2 per workload), for tests")
	flag.BoolVar(&o.layers, "layers", false, "only the workload-independent layer probes")
	flag.BoolVar(&o.extras, "extras", false, "with -trace 1: also the probes that start other processes")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "traces"), "directory for the trace files")
	flag.Parse()
	o.trace = trace != 0
	if o.smoke && o.seconds > 0.5 {
		o.seconds = 0.5
	}
	os.Exit(run(o, os.Stdout))
}

// run executes one invocation, writing the report to w, and returns the
// exit code.
func run(o options, w io.Writer) int {
	cat, err := loadCatalogue()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	hostFacts(w)
	chk := &checker{}
	var m *metrics
	var defs []metricDef
	switch {
	case o.layers:
		defer watchdog("layer probes")()
		m = layerProbes(o)
		m.print(w)
		return 0
	case workloads[o.workload].run == nil:
		fmt.Fprintf(os.Stderr, "bench: -workload must be one of %v\n", cat.workloadNames())
		return 2
	case o.trace:
		m, err = tracedRun(o, cat.workloadNames(), chk, w)
		defs = cat.PerLayer
		if o.extras {
			defs = append(append([]metricDef(nil), defs...), extras...)
		}
	default:
		stop := watchdog(o.workload)
		m, err = workloads[o.workload].run(o, chk)
		stop()
		defs = cat.EndToEnd
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	m.print(w)
	chk.print(w)
	line, err := finish(m, defs, chk)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if chk.failed > 0 {
		return 1
	}
	return 0
}

// tracedRun is the layer report. Whatever workload the driver names, it
// runs the layer probes and a short traced slice of all four workloads,
// because the contract wants every per-layer metric from every traced run;
// the slices are fixed-size, so their counts repeat exactly. Each slice
// writes its own trace file.
func tracedRun(o options, names []string, chk *checker, w io.Writer) (*metrics, error) {
	m := newMetrics()
	stop := watchdog("layer probes")
	m.merge(layerProbes(o))
	stop()

	for _, name := range names {
		stop := watchdog(name + " traced slice")
		tr := newTracer()
		wm, err := workloads[name].trace(o, tr, chk)
		stop()
		if err != nil {
			return nil, err
		}
		m.merge(wm)
		if err := validateSpans(tr.spans); !chk.check(err == nil, "%s: %v", name, err) {
			continue
		}
		path := filepath.Join(o.outDir, fmt.Sprintf("%s.seed%d.jsonl", name, o.seed))
		if err := tr.flush(path); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		fmt.Fprintf(w, "trace: %s (%d spans); self time by layer:", path, len(tr.spans))
		self := selfTimeByLayer(tr.spans)
		layers := make([]string, 0, len(self))
		for layer := range self {
			layers = append(layers, layer)
		}
		sort.Strings(layers)
		for _, layer := range layers {
			fmt.Fprintf(w, " %s=%.3fs", layer, self[layer].Seconds())
		}
		fmt.Fprintln(w)
	}
	budgetRows(m)

	if o.extras {
		stop := watchdog("extras")
		probeExtras(m, o)
		stop()
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("host.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	if rss, err := peakRSSMB(); err == nil {
		m.set("host.peak_rss_mb", rss)
	} else {
		m.null("host.peak_rss_mb", err.Error())
	}
	return m, nil
}

// budgetRows splits the median two-frame mesh-kv op (a request answered
// where it was sent: one header frame out, one page frame back) into the
// parts the probes measured alone, with the remainder stated, so the rows
// sum to mesh.op_p50_us.f2 — the paper's §3.1 transport-share argument as
// an artifact.
func budgetRows(m *metrics) {
	parts := []string{"mesh.op_p50_us.f2", "dsm.local_hit_ns", "netx.rtt_us.hdr", "netx.rtt_us.page",
		"asvm.wire_encode_ns.access_req", "asvm.wire_decode_ns.access_req",
		"asvm.wire_encode_ns.grant_page", "asvm.wire_decode_ns.grant_page"}
	v := make([]float64, len(parts))
	for i, name := range parts {
		var ok bool
		if v[i], ok = m.get(name); !ok {
			for _, row := range []string{"budget.inject_us", "budget.wire_us", "budget.codec_us", "budget.protocol_us"} {
				m.null(row, name+" was not measured")
			}
			return
		}
	}
	total, inject, wire, codec := v[0], v[1]/1e3, v[2]/2+v[3]/2, (v[4]+v[5]+v[6]+v[7])/1e3
	m.setN("budget.inject_us", inject, 0, "dsm.local_hit: inject, spawn, resume, reply")
	m.setN("budget.wire_us", wire, 0, "one header and one page frame at half their netx round trips")
	m.setN("budget.codec_us", codec, 0, "encode + decode of the request and the page grant")
	m.setN("budget.protocol_us", total-inject-wire-codec, 0, "remainder of mesh.op_p50_us.f2")
}
