// netdemo runs the ASVM protocol across real OS processes. It spawns one
// asvmd daemon per node on localhost (2-4 nodes) and drives a registered
// portable workload (app.Workload) through their control ports — the
// Table-1 walk by default, or the kv store with -workload kv — then
// drains the mesh, shuts the daemons down, and prints each operation's
// measured wall-clock fault latency next to the latency the deterministic
// simulator predicts for the identical op stream on 1996 Paragon
// hardware. Both runs go through the same app.Run on the same ops: only
// the app.Env differs (dsmhost over TCP vs simhost over the engine).
//
//	go run ./examples/netdemo -nodes 3
//	go run ./examples/netdemo -nodes 3 -workload kv
//	go run ./examples/netdemo -nodes 2 -asvmd ./bin/asvmd
//
// Without -asvmd the demo re-executes itself in daemon mode, so a plain
// `go run` works with no prebuilt binary.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"asvm/internal/app"
	"asvm/internal/app/dsmhost"
	"asvm/internal/app/simhost"
	"asvm/internal/dsm"
)

func main() {
	nodes := flag.Int("nodes", 3, "mesh size (2-4 processes)")
	workload := flag.String("workload", "table1",
		fmt.Sprintf("registered workload to run (%s)", strings.Join(app.Names(), "|")))
	seed := flag.Uint64("seed", 1, "workload generator seed")
	asvmd := flag.String("asvmd", "", "path to an asvmd binary (default: re-exec this binary in -serve mode)")
	serve := flag.Bool("serve", false, "internal: run as a mesh daemon instead of the orchestrator")
	configPath := flag.String("config", "", "internal: mesh config for -serve")
	nodeID := flag.Int("node", -1, "internal: node ID for -serve")
	flag.Parse()

	if *serve {
		// One mesh node, exactly what cmd/asvmd runs, so the demo needs no
		// second binary under `go run`.
		if err := dsm.Daemon("netdemo daemon", *configPath, *nodeID); err != nil {
			log.Fatalf("netdemo daemon: %v", err)
		}
		return
	}
	if *nodes < 2 || *nodes > 4 {
		log.Fatalf("netdemo: -nodes must be 2-4, have %d", *nodes)
	}
	if err := orchestrate(*nodes, *workload, *seed, *asvmd); err != nil {
		log.Fatalf("netdemo: %v", err)
	}
}

// freeAddr reserves a localhost port by binding and releasing it. The
// tiny race against another process grabbing it is acceptable for a demo.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// parityCounters is the set the demo asserts to exact equality between
// the real mesh and the simulated twin.
var parityCounters = []string{
	"faults", "invalidations", "msgs", "nacks",
	"proto_transitions", "ring_scan_hops",
}

func orchestrate(nodes int, workload string, seed uint64, asvmdPath string) error {
	wl, ok := app.Lookup(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(app.Names(), ", "))
	}
	ops := wl.Ops(nodes, seed)
	pages := wl.Pages(nodes)

	cfg := &dsm.MeshConfig{Region: "netdemo", Pages: pages, Home: 0}
	for i := 0; i < nodes; i++ {
		xp, err := freeAddr()
		if err != nil {
			return err
		}
		ct, err := freeAddr()
		if err != nil {
			return err
		}
		cfg.Nodes = append(cfg.Nodes, dsm.NodeSpec{ID: i, Xport: xp, Ctrl: ct})
	}

	dir, err := os.MkdirTemp("", "netdemo")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfgPath := filepath.Join(dir, "mesh.json")
	if err := cfg.WriteFile(cfgPath); err != nil {
		return err
	}

	// One daemon process per node. Daemon logs go to our stderr so a
	// crashing node is visible, not silent.
	var procs []*exec.Cmd
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()
	for i := 0; i < nodes; i++ {
		var cmd *exec.Cmd
		if asvmdPath != "" {
			cmd = exec.Command(asvmdPath, "-config", cfgPath, "-node", fmt.Sprint(i))
		} else {
			self, err := os.Executable()
			if err != nil {
				return err
			}
			cmd = exec.Command(self, "-serve", "-config", cfgPath, "-node", fmt.Sprint(i))
		}
		cmd.Stderr = os.Stderr
		cmd.Stdout = os.Stdout
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting node %d: %w", i, err)
		}
		procs = append(procs, cmd)
	}
	fmt.Printf("netdemo: %d asvmd processes up, region %q (%d pages), home node %d, workload %q (%d ops)\n",
		nodes, cfg.Region, cfg.Pages, cfg.Home, workload, len(ops))

	var clients []*dsm.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < nodes; i++ {
		c, err := dsm.DialCtrl(cfg.Nodes[i].Ctrl, 15*time.Second)
		if err != nil {
			return fmt.Errorf("node %d control: %w", i, err)
		}
		clients = append(clients, c)
	}

	// The op stream, one op at a time, drained between ops — the schedule
	// under which the simulator's twin run takes identical protocol
	// decisions, making the latency table like-for-like.
	realRes, err := app.Run(dsmhost.FromClients(clients), ops)
	if err != nil {
		return err
	}
	fmt.Println("netdemo: clean drain — mesh quiescent, all values verified")

	// Per-node transport/protocol ledger over the stats control op.
	fmt.Println("netdemo: per-node ledger (frames / bytes / nacks / proto transitions / ring scan hops):")
	for i, c := range clients {
		st, err := c.Stats()
		if err != nil {
			return fmt.Errorf("node %d stats: %w", i, err)
		}
		fmt.Printf("  node %d: %d frames, %d bytes, %d nacks, %d transitions, %d hops\n",
			i, st.Frames, st.Bytes, st.Nacks, st.ProtoTransitions, st.RingScanHops)
	}

	for i, c := range clients {
		if err := c.Shutdown(); err != nil {
			return fmt.Errorf("shutting down node %d: %w", i, err)
		}
	}
	for i, p := range procs {
		if err := p.Wait(); err != nil {
			return fmt.Errorf("node %d exited uncleanly: %w", i, err)
		}
	}
	procs = nil
	fmt.Println("netdemo: all daemons exited cleanly")

	fmt.Println("netdemo: running the simulated twin (calibrated 1996 Paragon costs)...")
	simEnv, err := simhost.NewEnv(nodes, pages)
	if err != nil {
		return fmt.Errorf("simulated twin: %w", err)
	}
	simRes, err := app.Run(simEnv, ops)
	if err != nil {
		return fmt.Errorf("simulated twin: %w", err)
	}

	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "operation\treal (TCP localhost)\tsimulated (Paragon '96)")
	for i, op := range ops {
		fmt.Fprintf(tw, "%s\t%v\t%v\n", op.Label, realRes.PerOp[i].Round(time.Microsecond), simRes.PerOp[i])
	}
	tw.Flush()

	fmt.Println()
	fmt.Printf("protocol counters (summed over nodes), real vs simulated:\n")
	for _, k := range parityCounters {
		marker := ""
		if realRes.Counters[k] != simRes.Counters[k] {
			marker = "   <-- MISMATCH"
		}
		fmt.Printf("  %-17s real %5d   sim %5d%s\n", k, realRes.Counters[k], simRes.Counters[k], marker)
	}
	for _, k := range parityCounters {
		if realRes.Counters[k] != simRes.Counters[k] {
			return fmt.Errorf("counter %q diverged: real %d, simulated %d", k, realRes.Counters[k], simRes.Counters[k])
		}
	}
	fmt.Println("netdemo: real mesh and simulator agree on every protocol counter")
	return nil
}
