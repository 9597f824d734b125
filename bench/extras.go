package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"asvm/internal/dsm"
	"asvm/internal/exp"
)

// The extras reach code this benchmark must not link against, because an
// open ROADMAP item proposes deleting it: they go through the asvmbench
// CLI at run time and report null when the flag is gone. They also drive
// real asvmd processes, to show what the in-process mesh leaves out.

// buildTool compiles one of the repository's commands into dir.
func buildTool(root, dir, name string) (string, error) {
	out := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s: %v: %s", name, err, firstLine(b))
	}
	return out, nil
}

func firstLine(b []byte) string {
	line, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	return line
}

// timeCLI runs a command `reps` times and returns its median wall time.
func timeCLI(reps int, bin string, args ...string) (float64, error) {
	var wall []float64
	for i := 0; i < reps; i++ {
		cmd := exec.Command(bin, args...)
		cmd.Stdout = io.Discard
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, firstLine(stderr.Bytes()))
		}
		wall = append(wall, time.Since(t0).Seconds())
	}
	return median(wall), nil
}

// lanesSpeedup is the scale sweep's wall time on the serial engine over
// its wall time with parallelArgs (normally "-engine parallel").
func lanesSpeedup(asvmbench string, parallelArgs ...string) (float64, error) {
	base := []string{"-scale", "-workers", "1"}
	serial, err := timeCLI(3, asvmbench, base...)
	if err != nil {
		return 0, err
	}
	parallel, err := timeCLI(3, asvmbench, append(base, parallelArgs...)...)
	if err != nil {
		return 0, err
	}
	return serial / parallel, nil
}

// workersSpeedup is exp.Table3's wall time on one worker over its wall
// time on one worker per CPU.
func workersSpeedup(seed uint64, sw sweeps) (float64, error) {
	var wall [2]float64
	for i, workers := range []int{1, runtime.NumCPU()} {
		t0 := time.Now()
		if err := exp.Table3(io.Discard, sw.em3dSizes, sw.em3dNodes, sw.iters, seed, workers); err != nil {
			return 0, err
		}
		wall[i] = time.Since(t0).Seconds()
	}
	return wall[0] / wall[1], nil
}

// asvmdKV starts four asvmd processes, drives `ops` ops of the mesh-kv
// stream through their control connections one at a time, and returns
// ops/s and the median client-observed latency in µs.
func asvmdKV(asvmd, dir string, seed uint64, ops int) (opsPerSec, p50 float64, err error) {
	addrs, err := reserveAddrs(2 * meshNodes)
	if err != nil {
		return 0, 0, err
	}
	cfg := dsm.MeshConfig{Region: "bench", Pages: meshPages, Home: 0}
	for i := 0; i < meshNodes; i++ {
		cfg.Nodes = append(cfg.Nodes, dsm.NodeSpec{ID: i, Xport: addrs[2*i], Ctrl: addrs[2*i+1]})
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return 0, 0, err
	}
	cfgPath := filepath.Join(dir, "asvmd-mesh.json")
	if err := os.WriteFile(cfgPath, b, 0o644); err != nil {
		return 0, 0, err
	}

	var procs []*exec.Cmd
	var clients []*dsm.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
		for _, p := range procs { // whatever did not exit on request
			p.Process.Kill()
			p.Wait()
		}
	}()
	for i := 0; i < meshNodes; i++ {
		cmd := exec.Command(asvmd, "-config", cfgPath, "-node", fmt.Sprint(i))
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			return 0, 0, fmt.Errorf("starting asvmd %d: %w", i, err)
		}
		procs = append(procs, cmd)
	}
	for i := 0; i < meshNodes; i++ {
		c, err := dsm.DialCtrl(cfg.Nodes[i].Ctrl, 15*time.Second)
		if err != nil {
			return 0, 0, err
		}
		clients = append(clients, c)
	}

	g := newKVGen(seed)
	var lat []float64
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		op := g.next()
		s := time.Now()
		got, err := doKV(clients[op.Node], op)
		lat = append(lat, us(time.Since(s)))
		if err != nil || got != op.Val {
			return 0, 0, fmt.Errorf("asvmd op %d: got %d (err %v), model says %d", i, got, err, op.Val)
		}
	}
	wall := time.Since(t0)

	for i, c := range clients {
		if err := c.Shutdown(); err != nil {
			return 0, 0, fmt.Errorf("asvmd %d shutdown: %w", i, err)
		}
	}
	for len(procs) > 0 {
		if err := procs[0].Wait(); err != nil {
			return 0, 0, fmt.Errorf("asvmd exited uncleanly: %w", err)
		}
		procs = procs[1:]
	}
	return float64(ops) / wall.Seconds(), median(lat), nil
}

// probeExtras fills the extras; each is null with a reason on any failure.
func probeExtras(m *metrics, o options) {
	names := make([]string, len(extras))
	for i, d := range extras {
		names[i] = d.Name
	}
	probe(m, names, func() error {
		root, err := repoRoot()
		if err != nil {
			return err
		}
		dir := filepath.Join(root, ".bench_build")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		sw, ops := fullSweeps, 5_000
		if o.smoke {
			sw, ops = quickSweeps, 300
		}

		if bin, err := buildTool(root, dir, "asvmbench"); err != nil {
			m.null("sim.lanes_speedup", err.Error())
		} else if v, err := lanesSpeedup(bin, "-engine", "parallel"); err != nil {
			m.null("sim.lanes_speedup", err.Error())
		} else {
			m.setN("sim.lanes_speedup", v, 3, "asvmbench -scale wall, serial / -engine parallel")
		}

		if v, err := workersSpeedup(o.seed, sw); err != nil {
			m.null("exp.workers_speedup", err.Error())
		} else {
			m.setN("exp.workers_speedup", v, 1, fmt.Sprintf("exp.Table3 wall, workers=1 / workers=%d", runtime.NumCPU()))
		}

		bin, err := buildTool(root, dir, "asvmd")
		if err != nil {
			return err
		}
		rate, p50, err := asvmdKV(bin, dir, o.seed, ops)
		if err != nil {
			return err
		}
		m.setN("asvmd.kv_ops_per_sec", rate, ops, "4 asvmd processes, ops through the JSON control plane")
		m.setN("asvmd.kv_op_p50_us", p50, ops, "")

		r, err := openMesh()
		if err != nil {
			return err
		}
		defer r.close()
		var chk checker
		s := r.runKV(newKVGen(o.seed), stopRule{ops: ops, batch: batchOps}, &chk, nil)
		if chk.failed > 0 {
			return fmt.Errorf("in-process reference stream: %s", chk.msgs[0])
		}
		m.setN("asvmd.kv_ops_ratio", rate/(float64(ops)/s.wall.Seconds()), ops, "asvmd ops/s over the in-process mesh's on the same ops")
		return nil
	})
}
