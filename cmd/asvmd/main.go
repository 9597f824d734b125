// Command asvmd runs one node of a real ASVM mesh: the same protocol
// stack the simulator drives, on the wall clock, talking to its peers
// over TCP. Every mesh process loads the same JSON config and picks out
// its own node by ID:
//
//	asvmd -config mesh.json -node 2
//
// The config lists each node's transport and control addresses:
//
//	{
//	  "region": "demo", "pages": 4, "home": 0,
//	  "nodes": [
//	    {"id": 0, "xport": "127.0.0.1:7000", "ctrl": "127.0.0.1:7100"},
//	    {"id": 1, "xport": "127.0.0.1:7001", "ctrl": "127.0.0.1:7101"}
//	  ]
//	}
//
// The daemon serves shared-memory operations (read/write/lock) plus the
// quiet/counters/stats introspection ops over the control address until
// it receives a shutdown request or a signal. Orchestrators drive a mesh
// of daemons through the portable application layer (internal/app with
// app/dsmhost wrapping the control clients); see examples/netdemo for an
// orchestrated multi-process run of the table1 and kv workloads.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"asvm/internal/dsm"
)

func main() {
	configPath := flag.String("config", "", "mesh config file (JSON)")
	nodeID := flag.Int("node", -1, "this process's node ID")
	flag.Parse()
	if *configPath == "" || *nodeID < 0 {
		fmt.Fprintln(os.Stderr, "usage: asvmd -config mesh.json -node N")
		os.Exit(2)
	}
	if err := dsm.Daemon("asvmd", *configPath, *nodeID); err != nil {
		log.Fatalf("asvmd: %v", err)
	}
}
