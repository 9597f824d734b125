package exp

import (
	"runtime"
	"runtime/debug"
	"testing"

	"asvm/internal/machine"
	"asvm/internal/sim"
)

// raceBuild reports a -race test binary, whose instrumentation allocates
// on its own account.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestTable3MallocsPerFault bounds what one Table 3 cell allocates per page
// fault, cluster assembly included: the fault paths of XMM, its pager and
// ASVM's home allocate nothing in steady state, and ASVM's slot table
// grows only with the pages a node touches, so what is left is about the
// one vm.Page each fault installs.
func TestTable3MallocsPerFault(t *testing.T) {
	if raceBuild() {
		t.Skip("-race instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC cycle mallocs for itself
	for _, sys := range []machine.System{machine.SysASVM, machine.SysXMM} {
		cfg := DefaultEM3D(64000, 8, 2)
		cfg.Seed = 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := machine.New(em3dParams(sys, cfg))
		if _, _, err := RunEM3D(c, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		var faults int64
		for _, k := range c.Kerns {
			faults += k.Ctr.V[sim.CtrFaults]
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(faults)
		t.Logf("%v: %d faults, %d mallocs, %.2f per fault", sys, faults, after.Mallocs-before.Mallocs, per)
		if per > 1.5 {
			t.Errorf("%v: %.2f mallocs per fault, want <= 1.5", sys, per)
		}
	}
}

// TestFootprintLadder prints the page-state memory of both systems over
// Table 3's node ladder at 256,000 cells (2 iterations); run it with -v
// for the table EXPERIMENTS records. XMM's manager holds 1 byte per page
// per node, so it grows with the ladder. ASVM's home holds its pager flags
// in a slot per page it granted, so it stays put; every other ASVM node
// holds a 1-byte-per-page directory plus the 8-page chunks it touched, so
// the largest of them shrinks as the cells spread over more nodes.
func TestFootprintLadder(t *testing.T) {
	t.Logf("%5s %6s %14s %14s %14s %14s", "nodes", "pages", "XMM manager B", "ASVM total B", "ASVM home B", "ASVM max other B")
	var lastOther int64
	for _, n := range []int{8, 16, 32, 64} {
		cfg := DefaultEM3D(256000, n, 2)
		cfg.Seed = 1
		var xmmFP int64
		for _, sys := range []machine.System{machine.SysXMM, machine.SysASVM} {
			c := machine.New(em3dParams(sys, cfg))
			_, r, err := RunEM3D(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sys == machine.SysXMM {
				xmmFP = c.XMMs[r.Home].Footprint(r.ID)
				if want := int64(r.SizePages) * int64(n); xmmFP != want {
					t.Errorf("%d nodes: XMM manager holds %d B, want pages × nodes = %d", n, xmmFP, want)
				}
				continue
			}
			var total, home, other int64
			for i, nd := range c.ASVMs {
				fp := nd.Footprint(r.ID)
				total += fp
				if i == r.Home {
					home = fp
				} else {
					other = max(other, fp)
				}
			}
			if lastOther != 0 && other >= lastOther {
				t.Errorf("%d nodes: the largest non-home ASVM node holds %d B, %d B at half the nodes", n, other, lastOther)
			}
			lastOther = other
			t.Logf("%5d %6d %14d %14d %14d %14d", n, r.SizePages, xmmFP, total, home, other)
		}
	}
}
