package machine

import (
	"testing"

	"asvm/internal/sim"
	"asvm/internal/vm"
)

// TestFootprintBoundedByTouchedPages is the paper's memory claim on the
// host: ASVM keeps page state only where pages are touched, XMM's manager
// one byte per page per node. On a 16-node, 28,000-page region where each
// node writes only its own sixteenth, every ASVM node holds at most its
// 1-byte-per-page directory plus 448 bytes per 8-page chunk it touched —
// the home also holds its pager flags, one chunk per 8 pages it granted —
// while the XMM manager holds pages × nodes bytes.
func TestFootprintBoundedByTouchedPages(t *testing.T) {
	const nodes, pages = 16, 28000
	const share = pages / nodes
	chunks := func(n int) int64 { return int64((n + 7) / 8) }
	for _, sys := range []System{SysASVM, SysXMM} {
		p := DefaultParams(nodes)
		p.System = sys
		c := New(p)
		all := make([]int, nodes)
		for i := range all {
			all[i] = i
		}
		r := c.NewSharedRegion("r", pages, all)
		for i := range all {
			task, err := c.TaskOn(i, "t", r, 0)
			if err != nil {
				t.Fatal(err)
			}
			base := i * share
			c.Spawn("t", func(p *sim.Proc) {
				for pg := base; pg < base+share; pg++ {
					if _, err := task.Touch(p, vm.Addr(pg*vm.PageSize), vm.ProtWrite); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		c.Run()
		for i := range all {
			switch sys {
			case SysASVM:
				// A sixteenth starts mid-chunk unless share is a multiple
				// of 8: allow the straddled chunk.
				touched := chunks(share) + 1
				if i == r.Home {
					touched = chunks(pages)
				}
				fp, bound := c.ASVMs[i].Footprint(r.ID), int64(pages)+448*touched
				if fp == 0 || fp > bound {
					t.Errorf("ASVM node %d: footprint %d B, want (0, %d]", i, fp, bound)
				}
			case SysXMM:
				want := int64(0)
				if i == r.Home {
					want = pages * nodes
				}
				if fp := c.XMMs[i].Footprint(r.ID); fp != want {
					t.Errorf("XMM node %d: footprint %d B, want %d", i, fp, want)
				}
			}
		}
	}
}
