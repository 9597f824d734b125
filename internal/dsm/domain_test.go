package dsm

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"

	"asvm/internal/app/simhost"
)

// TestOpenBuildsTheSimulatorsDomain pins the two deployments to one domain:
// a mesh opened from a config that lists its nodes out of ID order builds,
// on every node, the same domain description the simulated twin builds for
// its region — same ID, home, mapping ring, size and forwarding config.
// Nothing is sent, so the nodes need no connections.
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
	want := env.W.Region(0).ASVMInfo()

	for _, ns := range cfg.Nodes {
		n, err := Open(cfg, ns.ID)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		got := n.inst.Info()
		if got.ID != want.ID || got.Home != want.Home || !slices.Equal(got.Mapping, want.Mapping) ||
			got.SizePages != want.SizePages || got.Cfg != want.Cfg {
			t.Errorf("node %d domain {ID %v Home %d Mapping %v Size %d Cfg %+v}, simulator {ID %v Home %d Mapping %v Size %d Cfg %+v}",
				ns.ID, got.ID, got.Home, got.Mapping, got.SizePages, got.Cfg,
				want.ID, want.Home, want.Mapping, want.SizePages, want.Cfg)
		}
	}
}
