package dsm

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"

	"asvm/internal/app/simhost"
	"asvm/internal/vm"
)

// TestOpenBuildsTheSimulatorsDomain compares every node of a mesh whose
// config lists its nodes out of ID order with the same node of the
// simulated twin: the domain it joined (ID, home, ring, size, forwarding
// config), its kernel (memory capacity, data tracking) and its task's map
// entries. The two may differ only in the kernel's cost row: zero on the
// mesh, the calibrated one on the simulator. Nothing is sent, so the nodes
// need no connections.
func TestOpenBuildsTheSimulatorsDomain(t *testing.T) {
	const pages = 16
	testDial = func(addr string) (net.Conn, error) { return nil, errors.New("dsm: no dialing in this test") }
	t.Cleanup(func() { testDial = nil })
	cfg := &MeshConfig{Region: "drift", Pages: pages, Home: 0}
	for _, id := range []int{2, 0, 1} {
		cfg.Nodes = append(cfg.Nodes, NodeSpec{ID: id, Xport: fmt.Sprintf("pipe:%d", id)})
	}

	env, err := simhost.NewEnv(3, pages)
	if err != nil {
		t.Fatal(err)
	}
	c := env.W.C
	type entry struct {
		Start, End vm.Addr
		Obj        vm.ObjID
		Offset     vm.PageIdx
		Prot       vm.Prot
		Inherit    vm.InheritMode
		NeedsCopy  bool
	}
	entries := func(tk *vm.Task) (out []entry) {
		for _, e := range tk.Map.Entries() {
			out = append(out, entry{e.Start, e.End, e.Object.ID, e.OffsetPages, e.MaxProt, e.Inherit, e.NeedsCopy})
		}
		return out
	}

	for _, ns := range cfg.Nodes {
		n, err := Open(cfg, ns.ID)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		got := n.inst.Info()
		want := c.ASVMs[ns.ID].Instance(env.W.Region(0).ID).Info()
		if got.ID != want.ID || got.Home != want.Home || !slices.Equal(got.Mapping, want.Mapping) ||
			got.SizePages != want.SizePages || got.Cfg != want.Cfg {
			t.Errorf("node %d domain {ID %v Home %d Mapping %v Size %d Cfg %+v}, simulator {ID %v Home %d Mapping %v Size %d Cfg %+v}",
				ns.ID, got.ID, got.Home, got.Mapping, got.SizePages, got.Cfg,
				want.ID, want.Home, want.Mapping, want.SizePages, want.Cfg)
		}

		gk, wk := n.kern, c.Kerns[ns.ID]
		if gk.Node != wk.Node || gk.Mem.CapacityPages != wk.Mem.CapacityPages || gk.TrackData != wk.TrackData {
			t.Errorf("node %d kernel {Node %d Capacity %d TrackData %v}, simulator {Node %d Capacity %d TrackData %v}",
				ns.ID, gk.Node, gk.Mem.CapacityPages, gk.TrackData, wk.Node, wk.Mem.CapacityPages, wk.TrackData)
		}
		if gk.Costs != (vm.Costs{}) || wk.Costs != vm.DefaultCosts() {
			t.Errorf("node %d costs %+v, simulator %+v: want the zero row and the calibrated one", ns.ID, gk.Costs, wk.Costs)
		}

		if ge, we := entries(n.task), entries(env.W.Task(ns.ID)); !slices.Equal(ge, we) || len(ge) != 1 {
			t.Errorf("node %d task maps %+v, simulator %+v", ns.ID, ge, we)
		}
	}
}
