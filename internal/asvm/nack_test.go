package asvm

import (
	"strings"
	"testing"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/sts"
	"asvm/internal/vm"
)

// newPartialCluster builds nHW hardware nodes but ASVM runtimes only on
// asvmOn: the others are reachable on the wire yet have no asvm protocol
// handler, so messages sent there bounce as transport NACKs.
func newPartialCluster(t *testing.T, nHW int, asvmOn []int, cfg Config) *cluster {
	t.Helper()
	e := sim.NewEngine()
	net := mesh.New(e, nHW, mesh.DefaultConfig(nHW))
	hw := make([]*node.Node, nHW)
	for i := range hw {
		hw[i] = node.New(e, mesh.NodeID(i))
	}
	tr := sts.New(e, net, hw, sts.DefaultCosts())
	c := &cluster{eng: e, net: net, tr: tr, hw: hw}
	for _, i := range asvmOn {
		k := vm.NewKernel(e, mesh.NodeID(i), vm.DefaultCosts(), vm.NewPhysMem(0), true)
		c.kerns = append(c.kerns, k)
		c.asvms = append(c.asvms, NewNode(e, k, tr, cfg))
	}
	return c
}

// TestNackFallbackChain points the redirector at a node with no ASVM
// runtime — as static manager, ring-scan member, and dynamic hint — and
// checks every request still resolves by falling back down the
// dynamic → static → global → home chain.
func TestNackFallbackChain(t *testing.T) {
	c := newPartialCluster(t, 3, []int{0, 1}, DefaultConfig())
	_, objs := c.setupDomain(sharedID, 3, nil, DefaultConfig())
	tasks := make([]*vm.Task, len(c.asvms))
	for i, a := range c.asvms {
		task := a.K.NewTask("t")
		if _, err := task.Map.MapObject(0, objs[i], 0, 3, vm.ProtWrite, vm.InheritShare); err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	info := c.asvms[0].Instance(sharedID).info
	// Poison the routing tables: node 2 joins the mapping ring (so it
	// becomes page 2's static manager and a ring-scan hop) without ever
	// getting a runtime.
	info.Mapping = append(info.Mapping, 2)
	info.rebuildMapIdx()

	in1 := c.asvms[1].Instance(sharedID)
	c.run(t, func(p *sim.Proc) error {
		// Phase A — static manager is dead: node 0 faults page 2, whose
		// static manager hashes to node 2. The NACK must fall through to
		// the home (node 0 itself).
		if err := tasks[0].WriteU64(p, 2*vm.PageSize, 11); err != nil {
			return err
		}
		// Phase B — ring scan crosses the dead node: node 1 faults the same
		// page. Static manager NACKs, the scan reaches node 2, NACKs again,
		// and must continue past it to the owner on node 0.
		v, err := tasks[1].ReadU64(p, 2*vm.PageSize)
		if err != nil {
			return err
		}
		if v != 11 {
			t.Errorf("read %d through NACK fallback, want 11", v)
		}
		// Phase C — stale dynamic hint: node 0 owns page 0; node 1 is told
		// the owner is the dead node. The NACK must drop the hint and
		// re-forward via the static manager.
		if err := tasks[0].WriteU64(p, 0, 22); err != nil {
			return err
		}
		in1.dyn.Put(0, 2)
		v, err = tasks[1].ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 22 {
			t.Errorf("read %d after hint NACK, want 22", v)
		}
		return nil
	})

	if h, ok := in1.dyn.Get(0); ok && h == 2 {
		t.Error("stale hint at the dead node survived the NACK")
	}
	if n := c.asvms[0].Ctr.Get("nacks"); n < 1 {
		t.Errorf("node 0 saw %d nacks, want >=1 (static manager bounce)", n)
	}
	if n := c.asvms[1].Ctr.Get("nacks"); n < 3 {
		t.Errorf("node 1 saw %d nacks, want >=3 (static, scan, hint)", n)
	}
	for _, a := range c.asvms {
		if got, want := a.Ctr.Get("nacks"), a.Ctr.Get("req_nacks")+a.Ctr.Get("hint_nacks"); got != want {
			t.Errorf("node %d: %d nacks but %d accounted for — something else bounced",
				a.Self, got, want)
		}
	}

	// With the dead node out of the mapping again, the surviving state must
	// satisfy every global invariant.
	info.Mapping = info.Mapping[:2]
	info.rebuildMapIdx()
	if c.eng.Pending() != 0 {
		t.Fatalf("%d events still pending", c.eng.Pending())
	}
	if err := CheckInvariants(c.cl(), info); err != nil {
		t.Fatal(err)
	}
}

// TestNackFallbackOrderGolden pins the fallback chain as a golden sequence
// of forwarding hops, including the ring scan stepping over TWO consecutive
// dead nodes. Nodes 3 and 4 join the mapping ring with no runtime; node 2
// resolves a page whose static manager is dead (static bounce → ring scan
// → skip 3 → skip 4 → owner) and then one with a poisoned dynamic hint
// (dyn bounce → hint dropped → static → owner). The exact hop order —
// dynamic before static before ring before home — is the degradation
// contract; reordering it is a deliberate act reviewed as a diff here.
func TestNackFallbackOrderGolden(t *testing.T) {
	c := newPartialCluster(t, 5, []int{0, 1, 2}, DefaultConfig())
	_, objs := c.setupDomain(sharedID, 4, nil, DefaultConfig())
	tasks := make([]*vm.Task, len(c.asvms))
	for i, a := range c.asvms {
		task := a.K.NewTask("t")
		if _, err := task.Map.MapObject(0, objs[i], 0, 4, vm.ProtWrite, vm.InheritShare); err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	info := c.asvms[0].Instance(sharedID).info
	in2 := c.asvms[2].Instance(sharedID)

	c.run(t, func(p *sim.Proc) error {
		// Seed ownership at node 0 while the ring is healthy.
		if err := tasks[0].WriteU64(p, 3*vm.PageSize, 33); err != nil {
			return err
		}
		if err := tasks[0].WriteU64(p, 0, 44); err != nil {
			return err
		}
		// Two consecutive ring members with no runtime join the mapping;
		// page 3's static manager now hashes to dead node 3.
		info.Mapping = append(info.Mapping, 3, 4)
		info.rebuildMapIdx()
		c.asvms[2].Trace.Enable()

		// Phase A — static manager dead, scan crosses both dead nodes.
		v, err := tasks[2].ReadU64(p, 3*vm.PageSize)
		if err != nil {
			return err
		}
		if v != 33 {
			t.Errorf("phase A read %d, want 33", v)
		}
		// Phase B — poisoned dynamic hint at a dead node.
		in2.dyn.Put(0, 3)
		v, err = tasks[2].ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 44 {
			t.Errorf("phase B read %d, want 44", v)
		}
		return nil
	})

	var hops []string
	for _, line := range c.asvms[2].Trace.Lines() {
		parts := strings.SplitN(line, " ", 2) // strip the "@time" stamp
		if len(parts) == 2 && strings.HasPrefix(parts[1], "t fwd: ") {
			hops = append(hops, parts[1])
		}
	}
	golden := []string{
		// Phase A: static attempt at dead 3, escalation to the ring scan,
		// the scan skipping dead 3 and dead 4, landing on owner 0.
		"t fwd: node 2 sends obj0.5000 p3 req (origin=2 want=read forHome=false scan=false hops=1) to 3",
		"t fwd: node 2 sends obj0.5000 p3 req (origin=2 want=read forHome=false scan=true hops=2) to 3",
		"t fwd: node 2 sends obj0.5000 p3 req (origin=2 want=read forHome=false scan=true hops=3) to 4",
		"t fwd: node 2 sends obj0.5000 p3 req (origin=2 want=read forHome=false scan=true hops=4) to 0",
		// Phase B: the dynamic hint is chased first, dies with the Nack,
		// and the retry falls back to the static manager (the owner).
		"t fwd: node 2 sends obj0.5000 p0 req (origin=2 want=read forHome=false scan=false hops=1) to 3",
		"t fwd: node 2 sends obj0.5000 p0 req (origin=2 want=read forHome=false scan=false hops=2) to 0",
	}
	if len(hops) != len(golden) {
		t.Fatalf("hop sequence changed: got %d hops:\n%s", len(hops), strings.Join(hops, "\n"))
	}
	for i := range golden {
		if hops[i] != golden[i] {
			t.Errorf("hop %d:\n got  %s\n want %s", i, hops[i], golden[i])
		}
	}

	if _, ok := in2.dyn.Get(0); ok {
		t.Error("poisoned hint survived its Nack")
	}
	if n := c.asvms[2].Ctr.Get("req_nacks"); n != 4 {
		t.Errorf("node 2 saw %d request nacks, want 4 (static, scan x2, hint)", n)
	}

	info.Mapping = info.Mapping[:3]
	info.rebuildMapIdx()
	if c.eng.Pending() != 0 {
		t.Fatalf("%d events still pending", c.eng.Pending())
	}
	if err := CheckInvariants(c.cl(), info); err != nil {
		t.Fatal(err)
	}
}
