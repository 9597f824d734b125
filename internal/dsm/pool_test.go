package dsm

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"asvm/internal/sim"
)

// poolState reads the op-proc pool on the engine: live procs on the
// node's engine, and how many of them are parked idle.
func poolState(t *testing.T, n *Node) (live, idle int) {
	t.Helper()
	if !n.loop.Call(func() { live, idle = n.eng.LiveProcs(), len(n.idle) }) {
		t.Fatal("node loop stopped")
	}
	return live, idle
}

// waitPool polls until the pool reaches the wanted state: a caller is
// released by its op's result, a moment before the proc that ran it parks.
func waitPool(t *testing.T, n *Node, wantLive, wantIdle int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		live, idle := poolState(t, n)
		if live == wantLive && idle == wantIdle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("op procs: %d live, %d idle; want %d live, %d idle", live, idle, wantLive, wantIdle)
		}
		time.Sleep(time.Millisecond)
	}
}

// Sequential ops, whatever their kind and whichever node the page lives
// on, are all served by one op proc per node: no proc and no goroutine is
// created per op.
func TestOpProcPoolSequentialOpsShareOneProc(t *testing.T) {
	nodes := pipeMesh(t, 2, 4)
	mixed := func(rounds int) {
		for i := 0; i < rounds; i++ {
			nd := nodes[i%2]
			if _, err := nd.Lock(0, 1); err != nil {
				t.Fatalf("lock: %v", err)
			}
			if _, err := nd.Write(8, uint64(i)); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := nd.Unlock(0, 1); err != nil {
				t.Fatalf("unlock: %v", err)
			}
			if v, _, err := nodes[1-i%2].Read(8); err != nil || v != uint64(i) {
				t.Fatalf("read = %d, %v; want %d", v, err, i)
			}
		}
	}
	mixed(2) // dials, pool and runtime helpers all exist after this
	drainNodes(t, nodes, 10*time.Second)
	before := runtime.NumGoroutine()
	mixed(100)
	for _, nd := range nodes {
		waitPool(t, nd, 1, 1)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d over 400 sequential ops", before, after)
	}
	// A mesh whose only procs are parked in the pool drains, and is Quiet.
	drainNodes(t, nodes, 10*time.Second)
	for i, nd := range nodes {
		if !nd.Quiet() {
			t.Errorf("node %d not Quiet with its op proc parked", i)
		}
		waitPool(t, nd, 1, 1)
	}
}

// K ops in flight at once grow the pool to K procs; later ops, sequential
// or concurrent, reuse those K.
func TestOpProcPoolGrowsToPeakConcurrency(t *testing.T) {
	const k = 5
	n := pipeMesh(t, 1, 4)[0]

	// gated runs k ops at once, each parked on one gate, and opens the
	// gate once all k are in flight.
	gated := func() {
		var gate *sim.Future
		n.loop.Call(func() { gate = sim.NewFuture(n.eng) })
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := n.do("gated", func(p *sim.Proc) error {
					_, err := gate.Wait(p)
					return err
				}); err != nil {
					t.Errorf("gated op: %v", err)
				}
			}()
		}
		waitPool(t, n, k, 0)
		n.loop.Call(func() { gate.Set(nil) })
		wg.Wait()
		waitPool(t, n, k, k)
	}

	gated()
	for i := 0; i < 50; i++ {
		if _, err := n.Write(0, uint64(i)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	waitPool(t, n, k, k)
	gated()
}

// An op's result goes to the caller that issued it and to nobody else: an
// error comes back as that error, and an op that outlives its caller's
// timeout finishes into a channel nobody reads, after which its proc serves
// the next caller like any other.
func TestOpProcPoolNoStaleResults(t *testing.T) {
	n := pipeMesh(t, 1, 4)[0]

	boom := errors.New("boom")
	if _, err := n.do("failing", func(*sim.Proc) error { return boom }); err != boom {
		t.Fatalf("failing op returned %v, want its own error", err)
	}
	waitPool(t, n, 1, 1)

	// The slow op parks on a gate for longer than its (shortened) timeout.
	var gate *sim.Future
	n.loop.Call(func() { gate = sim.NewFuture(n.eng) })
	late := errors.New("late result of the timed-out op")
	n.opTimeout = 20 * time.Millisecond
	_, err := n.do("slow", func(p *sim.Proc) error {
		gate.Wait(p)
		return late
	})
	n.opTimeout = opTimeout
	if err == nil || !strings.Contains(err.Error(), "slow timed out") {
		t.Fatalf("slow op returned %v, want a timeout", err)
	}
	waitPool(t, n, 1, 0) // its proc is still busy with it

	// While it is stuck, other ops run on a second proc.
	if v, _, err := n.Read(0); err != nil || v != 0 {
		t.Fatalf("read beside the stuck op = %d, %v", v, err)
	}
	waitPool(t, n, 2, 1)

	// The stuck op completes at last; its proc rejoins the pool, and every
	// later caller — some served by that very proc — gets its own answer.
	n.loop.Call(func() { gate.Set(nil) })
	waitPool(t, n, 2, 2)
	for i := 0; i < 8; i++ {
		want := fmt.Errorf("answer %d", i)
		if _, err := n.do("probe", func(*sim.Proc) error { return want }); err != want {
			t.Fatalf("probe %d returned %v, want %v", i, err, want)
		}
	}
	waitPool(t, n, 2, 2)
}

// Close unwinds the op procs, parked in the pool or stuck mid-operation,
// instead of abandoning their goroutines.
func TestCloseUnwindsOpProcs(t *testing.T) {
	nodes, stop, err := PipeMesh(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := nodes[0]
	var gate *sim.Future
	n.loop.Call(func() { gate = sim.NewFuture(n.eng) })
	unwound := make(chan struct{})
	gaveUp := make(chan struct{})
	n.opTimeout = 100 * time.Millisecond // its caller gives up; the proc stays parked
	go func() {
		defer close(gaveUp)
		n.do("stuck", func(p *sim.Proc) error {
			defer close(unwound)
			gate.Wait(p)
			return nil
		})
	}()
	waitPool(t, n, 1, 0)
	if _, err := n.Write(0, 1); err != nil { // a second proc, left parked in the pool
		t.Fatalf("write: %v", err)
	}
	waitPool(t, n, 2, 1)
	stop()
	select {
	case <-unwound:
	case <-time.After(10 * time.Second):
		t.Fatal("Close left the stuck op proc parked")
	}
	<-gaveUp
	if live := n.eng.LiveProcs(); live != 0 { // the loop has stopped: safe to read
		t.Fatalf("%d procs live after Close", live)
	}
}

// do used to arm a time.After(30 s) per op and never stop it; under this
// module's go 1.22 timer semantics each one sat in the runtime's timer heap
// until it fired — half a million live timers at mesh-kv's op rate. The
// heap must not grow with the number of ops issued.
func TestOpsLeaveNoTimersBehind(t *testing.T) {
	n := pipeMesh(t, 1, 4)[0]
	read := func(ops int) {
		for i := 0; i < ops; i++ {
			if _, _, err := n.Read(0); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}
	heapObjects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	read(1000) // fault the page in; everything after is a local hit
	before := heapObjects()
	read(50_000)
	after := heapObjects()
	// A leaked timer is three heap objects, 150,000 in all; a clean run ends
	// within ten objects of where it began. The slack is for whatever else
	// the runtime allocates meanwhile.
	const slack = 500
	if after > before+slack {
		t.Fatalf("heap objects grew from %d to %d over 50k local-hit reads", before, after)
	}
}

// do reuses its per-call state — result channel, backstop timer, the run
// and start closures — so a local-hit read costs only what Read itself
// allocates: 3 objects, where a fresh timer, channel and closure pair per
// op made it 11. The bound leaves room for -race, under which sync.Pool
// drops a quarter of what it is given. And it never leaves the caller: the
// engine is idle, so do borrows it and the op proc is stepped from the
// calling goroutine — no wake-up of the loop goroutine, none back.
func TestLocalHitAllocs(t *testing.T) {
	n := pipeMesh(t, 1, 4)[0]
	read := func() {
		if _, _, err := n.Read(0); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	for i := 0; i < 1000; i++ { // fault the page in, grow the loop's queues
		read()
	}
	// An op runs on its proc's coroutine, so "who is running me" is read off
	// the goroutine dump: the goroutine inside the engine's turn must be the
	// one inside do. The loop goroutine owns the engine for a moment every
	// 250 ms; an op that lands then is legitimately queued, hence the retry.
	onCaller, seen := false, false
	for try := 0; try < 20 && !onCaller; try++ {
		n.do("whoami", func(*sim.Proc) error {
			buf := make([]byte, 1<<20)
			for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
				if strings.Contains(g, "rt.(*Loop).turn") {
					seen, onCaller = true, strings.Contains(g, "dsm.(*Node).do")
				}
			}
			return nil
		})
	}
	if !seen {
		t.Fatal("no goroutine is inside rt.(*Loop).turn while an op runs: this check is out of date")
	}
	if !onCaller {
		t.Fatal("a local op on an idle engine ran on another goroutine than its caller's")
	}
	if allocs := testing.AllocsPerRun(10_000, read); allocs > 6 {
		t.Fatalf("a local-hit read allocates %.0f objects, want <= 6", allocs)
	}
}
