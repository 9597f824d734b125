package main

import (
	"fmt"
	"time"
)

// meshEndToEnd turns the clients' streams into the six end-to-end figures.
// An op is one client operation; a batch is batchOps consecutive ops of
// one client.
func meshEndToEnd(setup []float64, cpu time.Duration, batchSize int, streams ...stream) *metrics {
	var lat, batch []float64
	var wall time.Duration
	for _, s := range streams {
		lat = append(lat, s.lat...)
		batch = append(batch, s.batch...)
		if s.wall > wall {
			wall = s.wall
		}
	}
	op := summarize(lat, 99)
	ops := float64(len(lat))
	m := newMetrics()
	m.setN("setup_s", median(setup), len(setup), "median of: Open x4, dial every pair, every node touches every page")
	m.setN("wall_s", median(batch), len(batch), fmt.Sprintf("median wall of a client's %d-op batch", batchSize))
	m.setN("ops_per_sec", ops/wall.Seconds(), len(lat), "completed ops / stream wall")
	m.setN("op_p50_us", op.P50, op.N, "client-observed, all ops")
	m.setN("op_p99_us", op.Tail, op.N, op.tailLabel())
	m.setN("cpu_us_per_op", us(cpu)/ops, len(lat), "process user+sys CPU over the stream")
	return m
}

// meshRun is the untraced run both mesh workloads share: set the mesh up
// (15 times, since one set-up takes ~6 ms and setup_s is their median),
// drive the clients for --seconds, then sweep and apply the gates. drive
// returns the clients' streams and the model the store must now match.
func meshRun(name string, o options, chk *checker,
	drive func(r *meshRig, stop stopRule) ([]stream, *[meshKeys]uint64)) (*metrics, error) {
	setups, stop := 15, stopRule{seconds: o.seconds, batch: batchOps}
	if o.smoke {
		setups, stop.batch = 1, 500
	}
	r, setup, err := setupMesh(setups)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	defer r.close()

	cpu0 := cpuTime()
	streams, model := drive(r, stop)
	cpu := cpuTime() - cpu0

	r.finalSweep(name, model, chk)
	r.totals().checkClean(name, chk)
	batches := 0
	for _, s := range streams {
		batches += len(s.batch)
	}
	if batches == 0 {
		return nil, fmt.Errorf("%s: not one %d-op batch in %.1fs", name, stop.batch, o.seconds)
	}
	return meshEndToEnd(setup, cpu, stop.batch, streams...), nil
}

// meshKV is the mesh-kv workload's untraced run.
func meshKV(o options, chk *checker) (*metrics, error) {
	return meshRun("mesh-kv", o, chk, func(r *meshRig, stop stopRule) ([]stream, *[meshKeys]uint64) {
		g := newKVGen(o.seed)
		return []stream{r.runKV(g, stop, chk, nil)}, &g.model
	})
}

// meshContend is the mesh-contend workload's untraced run.
func meshContend(o options, chk *checker) (*metrics, error) {
	return meshRun("mesh-contend", o, chk, func(r *meshRig, stop stopRule) ([]stream, *[meshKeys]uint64) {
		var model [meshKeys]uint64
		s := r.runContend(o.seed, &model, stop, chk, nil)
		return s[:], &model
	})
}

// streamCounts are the per-op and per-fault protocol ratios of one mesh
// stream, from the counter deltas across it. tag is "kv" or "contend".
func streamCounts(m *metrics, tag string, d map[string]int64, ops int) {
	n, faults := float64(ops), float64(d["faults"])
	per := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	m.set("netx.frames_per_op."+tag, float64(d["frames_sent"])/n)
	m.set("netx.bytes_per_op."+tag, float64(d["bytes_sent"])/n)
	m.set("asvm.faults_per_op."+tag, faults/n)
	m.set("asvm.requests_per_fault."+tag, per(float64(d["data_requests"]), faults))
	m.set("asvm.supplies_per_fault."+tag, per(float64(d["data_supplies"]), faults))
	m.set("asvm.msgs_per_op."+tag, float64(d["msgs"])/n)
	m.set("asvm.invals_per_op."+tag, float64(d["invalidations"])/n)
	m.set("asvm.retries_per_op."+tag, float64(d["grant_retries"]+d["home_retries"]+d["fault_redrives"])/n)
	m.set("asvm.nacks_per_op."+tag, float64(d["nacks"])/n)
}

// frame classes of a mesh-kv op: how many frames the whole mesh sent
// while it ran. 0 is a local hit, 1-2 a request answered where it was
// sent (hint hit), 3 one forward, 4 or more an invalidation round.
var frameClasses = [...]string{"f0", "f2", "f3", "f4plus"}

func frameClass(frames int64) int {
	switch {
	case frames == 0:
		return 0
	case frames <= 2:
		return 1
	case frames == 3:
		return 2
	default:
		return 3
	}
}

// traceKV runs two fixed-count slices of the mesh-kv stream on one mesh:
// one untraced, for the exact whole-stream counters and the reference
// throughput, then one with a span per op carrying the deltas of every
// node's counters across it. Per-op deltas are attributable only because
// one op is in flight at a time.
func traceKV(o options, tr *tracer, chk *checker) (*metrics, error) {
	ops := 15_000
	if o.smoke {
		ops = 1_000
	}
	r, err := openMesh()
	if err != nil {
		return nil, fmt.Errorf("mesh-kv traced: %w", err)
	}
	defer r.close()

	g := newKVGen(o.seed)
	before := r.totals()
	plain := r.runKV(g, stopRule{ops: ops, batch: batchOps}, chk, nil)
	whole := r.totals().delta(before)

	byClass := make([][]float64, len(frameClasses))
	byKind := make([][]float64, len(kvKindNames))
	root := tr.begin(0, "stream", "bench")
	prev := r.totals()
	traced := r.runKV(g, stopRule{ops: ops, batch: batchOps}, chk, func(op kvOp, start, end time.Time) {
		now := r.totals()
		d := now.delta(prev)
		prev = now
		tr.add(root, kvKindNames[op.Kind], "dsm", start, end, d)
		lat := us(end.Sub(start))
		byClass[frameClass(d["frames_sent"])] = append(byClass[frameClass(d["frames_sent"])], lat)
		byKind[op.Kind] = append(byKind[op.Kind], lat)
	})
	tr.end(root, map[string]int64{"ops": int64(ops)})
	r.finalSweep("mesh-kv traced", &g.model, chk)
	r.totals().checkClean("mesh-kv traced", chk)

	m := newMetrics()
	m.setN("dsm.open_ms", ms(r.open), 1, "four dsm.Open calls")
	streamCounts(m, "kv", whole, ops)
	for i, c := range frameClasses {
		m.setN("mesh.op_share."+c, float64(len(byClass[i]))/float64(ops), ops, "")
		m.setN("mesh.op_p50_us."+c, median(byClass[i]), len(byClass[i]), "0 when the class is empty")
	}
	for i, k := range kvKindNames {
		m.setN("mesh."+k+"_p50_us", median(byKind[i]), len(byKind[i]), "")
	}
	all := summarize(traced.lat, 99.9)
	m.setN("mesh.op_p999_us", all.Tail, all.N, all.tailLabel())
	m.setN("trace.overhead_pct", 100*(traced.wall.Seconds()/plain.wall.Seconds()-1), ops,
		"mesh-kv traced slice wall vs untraced, counter snapshots included")
	return m, nil
}

// traceContend runs a fixed-count traced slice of mesh-contend: client-side
// op spans plus whole-run counter deltas (with two ops in flight, per-op
// deltas cannot be attributed).
func traceContend(o options, tr *tracer, chk *checker) (*metrics, error) {
	ops := 10_000 // per client
	if o.smoke {
		ops = 1_000
	}
	r, err := openMesh()
	if err != nil {
		return nil, fmt.Errorf("mesh-contend traced: %w", err)
	}
	defer r.close()

	var model [meshKeys]uint64
	before := r.totals()
	s := r.runContend(o.seed, &model, stopRule{ops: ops, batch: batchOps}, chk, tr)
	whole := r.totals().delta(before)
	r.finalSweep("mesh-contend traced", &model, chk)
	r.totals().checkClean("mesh-contend traced", chk)

	m := newMetrics()
	streamCounts(m, "contend", whole, len(s[0].lat)+len(s[1].lat))
	return m, nil
}
