package dsm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/vm"
)

// The scenario-level parity tests (real mesh vs simulated twin through
// the portable app layer) live in app/dsmhost, which imports this
// package. What belongs here is the machinery underneath them: the
// net.Pipe mesh builder, the drain loop, and the control plane.

// pipeMesh opens an n-node dsm mesh connected by net.Pipe.
func pipeMesh(t *testing.T, n int, pages int64) []*Node {
	t.Helper()
	nodes, stop, err := PipeMesh(n, pages)
	if err != nil {
		t.Fatalf("pipe mesh: %v", err)
	}
	t.Cleanup(stop)
	return nodes
}

// drainNodes waits until every node is locally quiet and total frame
// traffic stops moving — DrainPollers over the in-process seam.
func drainNodes(t *testing.T, nodes []*Node, timeout time.Duration) {
	t.Helper()
	pollers := make([]QuietPoller, len(nodes))
	for i, nd := range nodes {
		pollers[i] = nd
	}
	if err := DrainPollers(pollers, 3, timeout); err != nil {
		t.Fatalf("mesh did not drain: %v", err)
	}
}

// A minimal end-to-end data-plane check at the Node API: the value
// written on one node is the value read on another, and the mesh drains.
func TestPipeMeshReadYourWrites(t *testing.T) {
	nodes := pipeMesh(t, 2, 4)
	if _, err := nodes[0].Write(8, 41); err != nil {
		t.Fatalf("write: %v", err)
	}
	drainNodes(t, nodes, 10*time.Second)
	v, _, err := nodes[1].Read(8)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if v != 41 {
		t.Fatalf("read %d, want 41", v)
	}
	drainNodes(t, nodes, 10*time.Second)
}

// The control plane end to end, in-process: a CtrlServer fronting a pipe
// mesh node, driven through a Client over real TCP.
func TestControlPlane(t *testing.T) {
	const n = 2
	nodes := pipeMesh(t, n, 4)

	srvs := make([]*CtrlServer, n)
	clients := make([]*Client, n)
	pollers := make([]QuietPoller, n)
	for i, nd := range nodes {
		s, err := ServeCtrl(nd, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("control server %d: %v", i, err)
		}
		t.Cleanup(s.Close)
		srvs[i] = s
		c, err := DialCtrl(s.Addr(), 5*time.Second)
		if err != nil {
			t.Fatalf("control client %d: %v", i, err)
		}
		t.Cleanup(c.Close)
		clients[i], pollers[i] = c, c
	}

	if _, err := clients[0].Write(8, 77); err != nil {
		t.Fatalf("ctrl write: %v", err)
	}
	v, lat, err := clients[1].Read(8)
	if err != nil {
		t.Fatalf("ctrl read: %v", err)
	}
	if v != 77 {
		t.Fatalf("ctrl read returned %d, want 77", v)
	}
	if lat <= 0 {
		t.Errorf("ctrl read reported non-positive latency %v", lat)
	}

	// Range locks through the control plane.
	if _, err := clients[1].Lock(0, 1); err != nil {
		t.Fatalf("ctrl lock: %v", err)
	}
	if _, err := clients[1].Unlock(0, 1); err != nil {
		t.Fatalf("ctrl unlock: %v", err)
	}

	// Spans and addresses outside the 4-page region are a client's mistake,
	// not the node's: each comes back as an Err reply (never a panic on the
	// node's loop, which would take the daemon down), an empty unlock is
	// still a no-op, and the node goes on serving with its one op proc
	// parked as before.
	waitPool(t, nodes[1], 1, 1)
	for _, req := range []CtrlRequest{
		{Op: "unlock", Lo: 0, Hi: 1 << 20},
		{Op: "unlock", Lo: -1, Hi: 1},
		{Op: "lock", Lo: 0, Hi: 1 << 20},
		{Op: "lock", Lo: -1, Hi: 1},
		{Op: "read", Addr: 1 << 40},
		{Op: "write", Addr: 1 << 40, Val: 1},
	} {
		resp, _ := clients[1].roundTrip(req)
		if resp.OK || resp.Err == "" {
			t.Errorf("ctrl %+v: reply %+v, want an Err reply", req, resp)
		}
	}
	if _, err := clients[1].Unlock(2, 2); err != nil {
		t.Errorf("ctrl unlock of an empty range: %v", err)
	}
	if v, _, err := clients[1].Read(8); err != nil || v != 77 {
		t.Fatalf("ctrl read after bad requests = %d, %v; want 77", v, err)
	}
	waitPool(t, nodes[1], 1, 1)

	if err := DrainPollers(pollers, 3, 10*time.Second); err != nil {
		t.Fatalf("drain over control plane: %v", err)
	}
	ctrs, err := clients[0].Counters()
	if err != nil {
		t.Fatalf("ctrl counters: %v", err)
	}
	if ctrs["faults"] == 0 {
		t.Errorf("node 0 reports no faults after a write: %v", ctrs)
	}

	// The stats reply surfaces the protocol-health counters: an ownership
	// transfer has happened, so pages changed protocol state somewhere.
	var transitions int64
	for _, c := range clients {
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("ctrl stats: %v", err)
		}
		if st.Frames == 0 {
			t.Error("stats reports zero frames after cross-node traffic")
		}
		transitions += st.ProtoTransitions
	}
	if transitions == 0 {
		t.Error("stats reports zero proto_transitions after an ownership transfer")
	}

	// Shutdown request closes the server's Shutdown gate.
	if err := clients[0].Shutdown(); err != nil {
		t.Fatalf("ctrl shutdown: %v", err)
	}
	select {
	case <-srvs[0].Shutdown:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown request did not trip the server's Shutdown gate")
	}
}

// tcpMesh opens an n-node dsm mesh over TCP loopback on ephemeral ports:
// every node listens on :0 and learns its peers' real addresses before
// anything is sent.
func tcpMesh(t *testing.T, n int, pages int64) []*Node {
	t.Helper()
	cfg := &MeshConfig{Region: "tcp", Pages: pages, Home: 0}
	for i := 0; i < n; i++ {
		cfg.Nodes = append(cfg.Nodes, NodeSpec{ID: i, Xport: "127.0.0.1:0"})
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := Open(cfg, i)
		if err != nil {
			t.Fatalf("tcp mesh node %d: %v", i, err)
		}
		t.Cleanup(nd.Close)
		nodes[i] = nd
	}
	for _, nd := range nodes {
		for j, peer := range nodes {
			nd.tr.AddPeer(mesh.NodeID(j), peer.Addr())
		}
	}
	return nodes
}

// Two writers falsely sharing one page: each fault is served by at most
// about one page supply. That ratio is what the loop's ordering rule buys:
// the faulting proc uses the page it was granted before the next frame —
// typically the other writer's request for the page back, sent right
// behind the grant — is handled. When every queued frame was handled
// first, the page went back unused, both writers re-requested, and the
// pair traded it 13-25 times per fault in this test. It needs sockets:
// over net.Pipe every Write is a synchronous hand-off, two frames are
// never queued behind one another, and the old loop read 1.0 as well.
func TestFalseSharingSuppliesPerFault(t *testing.T) {
	nodes := tcpMesh(t, 2, 4)
	const writes = 2000
	sum := func() (faults, supplies int64) {
		for _, nd := range nodes {
			c := nd.Counters()
			faults += c["faults"]
			supplies += c["data_supplies"]
		}
		return
	}
	f0, s0 := sum()
	errs := make(chan error, len(nodes))
	for i, nd := range nodes {
		go func() {
			addr := vm.Addr(8 * i) // disjoint words of page 0
			for k := 1; k <= writes; k++ {
				want := uint64(i)<<32 | uint64(k)
				if _, err := nd.Write(addr, want); err != nil {
					errs <- err
					return
				}
				if got, _, err := nd.Read(addr); err != nil || got != want {
					errs <- fmt.Errorf("node %d write %d: read back %d, %v; want %d", i, k, got, err, want)
					return
				}
			}
			errs <- nil
		}()
	}
	for range nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	drainNodes(t, nodes, 10*time.Second)
	f1, s1 := sum()
	faults, supplies := f1-f0, s1-s0
	t.Logf("%d faults, %d data supplies (%.2f per fault)", faults, supplies, float64(supplies)/float64(faults))
	if faults == 0 || float64(supplies) > 1.5*float64(faults) {
		t.Fatalf("%d data supplies for %d faults: more than 1.5 per fault", supplies, faults)
	}
}

// Eviction and invalidation over sockets with every read checked. Every
// page buffer on the way — a frame, a message's snapshot, a decoder's copy
// — is recycled, and under -race a returned buffer is poisoned: a buffer
// given back while anyone still reads it, or a frame installed over
// leftovers, fails a read here.
//
// First under memory pressure: each node has room for four pages and works
// on eight of its own, so owned pages keep leaving — offered to the others
// (who are as full, and decline), parked at the home's pager, paged back
// in. Nodes keep to their own pages there because of a protocol bug this test found and does not fix
// (the simulator has it too): serving a read downgrades the owner's page
// and marks it clean, and a clean owner page evicted to the pager is
// dropped as "already there" although the pager never saw it. (A node with
// room to accept offers is left out for the same kind of reason: the first
// accepted offer ends in a fault livelock on the wall-clock engine, at the
// parent commit as here.) Then with memory unlimited again, every node reads and writes every page: read
// copies are invalidated, ownership is stolen.
func TestEvictionInvalidationOverTCPEveryReadChecked(t *testing.T) {
	const pages, frames, words = 24, 4, 4
	nodes := tcpMesh(t, 3, pages)
	setMem := func(capacity int) {
		for _, nd := range nodes {
			nd.loop.Call(func() {
				mem := vm.NewPhysMem(capacity)
				mem.ResidentPages = nd.kern.Mem.ResidentPages
				nd.kern.Mem = mem
			})
		}
	}
	rng := rand.New(rand.NewSource(1))
	model := make(map[vm.Addr]uint64)
	op := 0
	run := func(ops int, pageFor func(node int) int) {
		for end := op + ops; op < end; op++ {
			i := rng.Intn(len(nodes))
			nd := nodes[i]
			addr := vm.Addr(pageFor(i))*vm.PageSize + vm.Addr(8*rng.Intn(words))
			if rng.Intn(3) == 0 {
				model[addr] = uint64(op)
				if _, err := nd.Write(addr, uint64(op)); err != nil {
					t.Fatalf("op %d: write %#x on node %d: %v", op, addr, i, err)
				}
			} else if got, _, err := nd.Read(addr); err != nil || got != model[addr] {
				t.Fatalf("op %d: read %#x on node %d = %d, %v; want %d", op, addr, i, got, err, model[addr])
			}
		}
	}
	count := func(name string) (n int64) {
		for _, nd := range nodes {
			n += nd.Counters()[name]
		}
		return n
	}

	setMem(frames)
	run(4000, func(node int) int { return node + len(nodes)*rng.Intn(pages/len(nodes)) })
	drainNodes(t, nodes, 10*time.Second) // evictions still in flight must land before the pressure lifts
	offers, parked, pagedIn := count("pageoffer_declined"), count("evict_to_pager"), count("home_pager_supplies")
	t.Logf("under pressure: %d evictions, %d offers declined, %d pages parked at the pager, %d paged back in",
		count("evictions"), offers, parked, pagedIn)
	if offers == 0 || parked == 0 || pagedIn == 0 {
		t.Fatal("the pressure phase did not offer pages around, park them at the pager and page them back in")
	}

	setMem(0)
	run(4000, func(int) int { return rng.Intn(pages) })
	drainNodes(t, nodes, 10*time.Second)
	invals, steals := count("invalidations"), count("write_grants")
	t.Logf("unlimited: %d invalidations, %d ownership transfers", invals, steals)
	if invals == 0 || steals == 0 {
		t.Fatal("the sharing phase invalidated or stole nothing")
	}
}
