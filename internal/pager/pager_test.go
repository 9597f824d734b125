package pager

import (
	"testing"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/sim"
	"asvm/internal/sts"
	"asvm/internal/vm"
	"asvm/internal/xport"
)

type penv struct {
	eng   *sim.Engine
	nodes []*node.Node
	tr    xport.Transport
}

// outFunc adapts a callback to PageOutDone.
type outFunc func()

func (f outFunc) PageOutDone(vm.ObjID, vm.PageIdx) { f() }

func newPenv(n int, withDisk bool) *penv {
	e := sim.NewEngine()
	net := mesh.New(e, n, mesh.DefaultConfig(n))
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nodes[i] = node.New(e, mesh.NodeID(i))
	}
	if withDisk {
		nodes[0].AttachDisk(e, 8*time.Millisecond, 4e6)
	}
	return &penv{eng: e, nodes: nodes, tr: sts.New(e, net, nodes, sts.DefaultCosts())}
}

func TestIONodeFor(t *testing.T) {
	cases := []struct {
		n     int
		total int
		ratio int
		want  mesh.NodeID
	}{
		{0, 64, 32, 0}, {31, 64, 32, 0}, {32, 64, 32, 32}, {63, 64, 32, 32},
		{5, 16, 32, 0}, {7, 8, 0, 0},
	}
	for _, c := range cases {
		if got := IONodeFor(mesh.NodeID(c.n), c.total, c.ratio); got != c.want {
			t.Errorf("IONodeFor(%d,%d,%d) = %v, want %v", c.n, c.total, c.ratio, got, c.want)
		}
	}
}

func TestPageOutThenPageIn(t *testing.T) {
	ev := newPenv(4, true)
	srv := NewServer(ev.eng, ev.tr, 0, ev.nodes[0].Disk, DefaultCosts(), "dp", true)
	cli := NewClient(ev.eng, ev.tr, 2, srv)
	obj := vm.ObjID{Node: 2, Seq: 1}
	data := make([]byte, vm.PageSize)
	data[5] = 0x77
	var gotBack []byte
	cli.PageOut(obj, 3, data, true, outFunc(func() {
		cli.PageIn(obj, 3, InFunc(func(d []byte, found bool) {
			if !found {
				t.Error("paged-out page not found")
			}
			gotBack = d
		}))
	}))
	ev.eng.Run()
	if gotBack == nil || gotBack[5] != 0x77 {
		t.Fatal("page contents lost through paging space")
	}
	if srv.PageOuts != 1 || srv.PageIns != 1 {
		t.Fatalf("server stats: %d outs %d ins", srv.PageOuts, srv.PageIns)
	}
	if ev.nodes[0].Disk.Writes != 1 {
		t.Fatalf("disk writes = %d", ev.nodes[0].Disk.Writes)
	}
}

func TestPageInMissingReportsNotFound(t *testing.T) {
	ev := newPenv(2, false)
	srv := NewServer(ev.eng, ev.tr, 0, nil, DefaultCosts(), "dp", true)
	cli := NewClient(ev.eng, ev.tr, 1, srv)
	called := false
	cli.PageIn(vm.ObjID{Node: 1, Seq: 9}, 0, InFunc(func(d []byte, found bool) {
		called = true
		if found {
			t.Error("missing page reported found")
		}
	}))
	ev.eng.Run()
	if !called {
		t.Fatal("no reply")
	}
}

func TestPreloadAndCache(t *testing.T) {
	ev := newPenv(2, true)
	srv := NewServer(ev.eng, ev.tr, 0, ev.nodes[0].Disk, DefaultCosts(), "fp", true)
	srv.CacheInMemory = true
	data := make([]byte, vm.PageSize)
	data[0] = 9
	obj := vm.ObjID{Node: 0, Seq: 50}
	srv.Preload(obj, 0, data)
	if !srv.Has(obj, 0) {
		t.Fatal("preloaded page not present")
	}
	cli := NewClient(ev.eng, ev.tr, 1, srv)
	reads := 0
	cli.PageIn(obj, 0, InFunc(func(d []byte, found bool) {
		if !found || d[0] != 9 {
			t.Error("preload contents lost")
		}
		reads++
		// Second read must hit the pager cache, not the disk.
		cli.PageIn(obj, 0, InFunc(func(d []byte, found bool) {
			if !found {
				t.Error("cached page lost")
			}
			reads++
		}))
	}))
	ev.eng.Run()
	if reads != 2 {
		t.Fatalf("reads = %d", reads)
	}
	if srv.DiskReads != 1 || srv.DiskSkip != 1 {
		t.Fatalf("disk reads = %d, skips = %d; cache not working", srv.DiskReads, srv.DiskSkip)
	}
}

func TestDiskSerializationLimitsThroughput(t *testing.T) {
	ev := newPenv(2, true)
	srv := NewServer(ev.eng, ev.tr, 0, ev.nodes[0].Disk, DefaultCosts(), "dp", true)
	cli := NewClient(ev.eng, ev.tr, 1, srv)
	obj := vm.ObjID{Node: 1, Seq: 1}
	done := 0
	for i := 0; i < 10; i++ {
		cli.PageOut(obj, vm.PageIdx(i), make([]byte, vm.PageSize), true, outFunc(func() { done++ }))
	}
	end := ev.eng.Run()
	if done != 10 {
		t.Fatalf("done = %d", done)
	}
	// 10 disk writes at 8ms seek + 2ms transfer each = at least 100ms.
	if end < 100*time.Millisecond {
		t.Fatalf("10 disk writes finished in %v; disk not serializing", end)
	}
}

// tally is a long-lived completion, the shape of every hot caller: an
// XMM manager, an ASVM home's pooled operation.
type tally struct{ ins, outs int }

func (c *tally) PageInDone(vm.ObjID, vm.PageIdx, []byte, bool) { c.ins++ }
func (c *tally) PageOutDone(vm.ObjID, vm.PageIdx)              { c.outs++ }

// TestRoundTripZeroAllocs pins the pager's steady state: a page-out round
// trip and a page-in round trip through the disk each allocate nothing —
// the request box is pooled and steps itself through the server, and the
// completion is the caller's own object.
func TestRoundTripZeroAllocs(t *testing.T) {
	ev := newPenv(2, true)
	srv := NewServer(ev.eng, ev.tr, 0, ev.nodes[0].Disk, DefaultCosts(), "dp", false)
	cli := NewClient(ev.eng, ev.tr, 1, srv)
	obj := vm.ObjID{Node: 1, Seq: 1}
	var done tally
	out := func() {
		cli.PageOut(obj, 3, nil, true, &done)
		ev.eng.Run()
	}
	in := func() {
		cli.PageIn(obj, 3, &done)
		ev.eng.Run()
	}
	out()
	in() // warm up the pool, the tables and the engine's heap
	if a := testing.AllocsPerRun(100, out); a != 0 {
		t.Errorf("page-out round trip: %.1f allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, in); a != 0 {
		t.Errorf("page-in round trip: %.1f allocs, want 0", a)
	}
	if done.outs != 102 || done.ins != 102 || srv.DiskReads != 102 {
		t.Fatalf("completions %d out / %d in, %d disk reads; want 102 each", done.outs, done.ins, srv.DiskReads)
	}
}
