package sim

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// Property and edge-case tests for the hand-specialized event queue and the
// run loop. These pin down the determinism contract the parallel experiment
// harness relies on: dispatch order is exactly (time, seq), regardless of
// the order events were pushed or how the heap happened to rebalance.

// TestHeapPropertyRandomized pushes events with randomized times (heavy on
// duplicates) in random order and checks the queue pops a perfect
// (time, seq) sort.
func TestHeapPropertyRandomized(t *testing.T) {
	rng := NewRNG(1234)
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		n := 1 + rng.Intn(300)
		type key struct {
			at  Time
			seq uint64
		}
		keys := make([]key, n)
		for i := 0; i < n; i++ {
			// Few distinct times: ties are the interesting case.
			at := Time(rng.Intn(8)) * time.Millisecond
			k := key{at: at, seq: uint64(i + 1)}
			keys[i] = k
			q.push(event{at: k.at, seq: k.seq})
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].at != keys[j].at {
				return keys[i].at < keys[j].at
			}
			return keys[i].seq < keys[j].seq
		})
		for i, want := range keys {
			got := q.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d pop %d: got (%v,%d), want (%v,%d)",
					trial, i, got.at, got.seq, want.at, want.seq)
			}
		}
		if q.len() != 0 {
			t.Fatalf("trial %d: %d events left after full drain", trial, q.len())
		}
	}
}

// TestEqualTimeFIFOInterleaved schedules same-instant events from several
// "sources" in interleaved order, with unrelated events pushed and popped in
// between to force heap rebalancing, and checks FIFO survives.
func TestEqualTimeFIFOInterleaved(t *testing.T) {
	rng := NewRNG(99)
	e := NewEngine()
	var order []int
	next := 0
	// Background noise: events before and after the interesting instant.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(rng.Intn(20))*time.Millisecond, func() {})
	}
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(10*time.Millisecond, func() { order = append(order, i) })
		next++
	}
	e.Run()
	if len(order) != 100 {
		t.Fatalf("ran %d tagged events, want 100", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO at %d: %v", i, order[:i+1])
		}
	}
}

// TestRunUntilExactDeadline checks the boundary: an event at exactly the
// deadline runs; an event one nanosecond past it stays queued and the clock
// parks on the deadline.
func TestRunUntilExactDeadline(t *testing.T) {
	e := NewEngine()
	var ran []string
	e.Schedule(time.Second, func() { ran = append(ran, "at") })
	e.Schedule(time.Second+time.Nanosecond, func() { ran = append(ran, "past") })
	end := e.RunUntil(time.Second)
	if end != time.Second || e.Now() != time.Second {
		t.Fatalf("stopped at %v, want exactly 1s", end)
	}
	if len(ran) != 1 || ran[0] != "at" {
		t.Fatalf("ran %v, want exactly the at-deadline event", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the past-deadline event", e.Pending())
	}
	// Resuming runs the rest.
	e.Run()
	if len(ran) != 2 || ran[1] != "past" {
		t.Fatalf("resume ran %v", ran)
	}
}

// TestRunUntilDeadlineBeforeAnyEvent checks RunUntil advances the clock to
// the deadline even when nothing is runnable before it.
func TestRunUntilDeadlineBeforeAnyEvent(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Hour, func() {})
	if end := e.RunUntil(time.Minute); end != time.Minute {
		t.Fatalf("RunUntil returned %v, want 1m", end)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

// TestHaltInsideEvent halts from within an event handler with more events
// queued at the same instant, and checks none of them run until resumed —
// Halt takes effect after the current event, not after the current instant.
func TestHaltInsideEvent(t *testing.T) {
	e := NewEngine()
	var ran []int
	e.Schedule(time.Millisecond, func() {
		ran = append(ran, 0)
		e.Halt()
	})
	for i := 1; i <= 3; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { ran = append(ran, i) })
	}
	e.Run()
	if len(ran) != 1 {
		t.Fatalf("events ran after Halt at the same instant: %v", ran)
	}
	if e.Now() != time.Millisecond {
		t.Fatalf("now = %v, want 1ms", e.Now())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("resume ran %v, want all four", ran)
	}
}

// TestHaltFromProc halts the engine from inside a proc, which must park the
// run loop without deadlocking the proc handoff.
func TestHaltFromProc(t *testing.T) {
	e := NewEngine()
	var after bool
	e.Spawn("h", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Halt()
		p.Sleep(time.Millisecond) // resumes only on the next Run
		after = true
	})
	e.Run()
	if after {
		t.Fatal("proc ran past Halt within the same Run")
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("live procs = %d, want the halted sleeper", e.LiveProcs())
	}
	e.Run()
	if !after || e.LiveProcs() != 0 {
		t.Fatalf("after=%v live=%d after resume", after, e.LiveProcs())
	}
}

// TestLiveProcsLeakDetection: a proc abandoned on a never-completed future
// shows up in LiveProcs after the run drains — exactly how stuck protocol
// operations are caught in tests.
func TestLiveProcsLeakDetection(t *testing.T) {
	e := NewEngine()
	leak := NewFuture(e)
	e.Spawn("stuck", func(p *Proc) { leak.Wait(p) })
	e.Spawn("fine", func(p *Proc) { p.Sleep(time.Millisecond) })
	e.Run()
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1 leaked proc", e.LiveProcs())
	}
	// Completing the future drains the leak.
	leak.Set(nil)
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after unblocking, want 0", e.LiveProcs())
	}

	// A leak nobody can complete is unwound by KillProcs: the parked proc's
	// own defers run, it never gets past its park, and a proc that was
	// spawned but never stepped is dropped without running at all.
	var deferred, resumed, started bool
	e.Spawn("abandoned", func(p *Proc) {
		defer func() { deferred = true }()
		NewFuture(e).Wait(p)
		resumed = true
	})
	e.Run()
	e.Spawn("unstarted", func(p *Proc) { started = true })
	if e.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d, want the abandoned and the unstarted proc", e.LiveProcs())
	}
	e.KillProcs()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after KillProcs, want 0", e.LiveProcs())
	}
	if !deferred || resumed || started {
		t.Fatalf("after kill: deferred=%v resumed=%v started=%v, want true false false", deferred, resumed, started)
	}
	// The unstarted proc's start-up wakeup is still queued; it is a no-op.
	e.Run()
	if started || e.LiveProcs() != 0 {
		t.Fatalf("killed proc ran on a later Run: started=%v live=%d", started, e.LiveProcs())
	}
	e.KillProcs() // nothing left: a no-op
}

// TestZeroSleepYieldsFairness documents the Sleep(0) contract: a zero-length
// sleep (and a negative one, which clamps to zero) parks the proc behind
// everything already queued for this instant, so same-instant work
// interleaves instead of one proc monopolizing the engine.
func TestZeroSleepYieldsFairness(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("spinner", func(p *Proc) {
		for i := 0; i < 3; i++ {
			trace = append(trace, "spin")
			p.Sleep(0)
		}
	})
	e.Spawn("other", func(p *Proc) {
		for i := 0; i < 3; i++ {
			trace = append(trace, "other")
			p.Sleep(-time.Second) // negative clamps to zero and still yields
		}
	})
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("zero sleeps advanced time to %v", e.Now())
	}
	want := []string{"spin", "other", "spin", "other", "spin", "other"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("zero-sleep did not interleave: %v", trace)
		}
	}
}

// TestScheduleNilFn checks a nil callback is a legal no-op event that still
// anchors virtual time (sim.Server relies on this to mark busy periods).
func TestScheduleNilFn(t *testing.T) {
	e := NewEngine()
	e.Schedule(5*time.Millisecond, nil)
	e.Run()
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("now = %v, want 5ms", e.Now())
	}
	if e.Executed != 1 {
		t.Fatalf("Executed = %d, want 1", e.Executed)
	}
}

// TestTypedFutureNoBoxing exercises the generic future with a concrete
// payload type end to end.
func TestTypedFutureNoBoxing(t *testing.T) {
	e := NewEngine()
	f := NewFutureOf[int](e)
	var got int
	e.Spawn("w", func(p *Proc) {
		v, err := f.Wait(p)
		if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
		got = v
	})
	e.Schedule(time.Millisecond, func() { f.Set(42) })
	e.Run()
	if got != 42 {
		t.Fatalf("typed future value = %d, want 42", got)
	}
}

// TestFutureManyWaitersOrder checks waiters wake in Wait order even past the
// inlined first-waiter slot.
func TestFutureManyWaitersOrder(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			f.Wait(p)
			order = append(order, i)
		})
	}
	e.Schedule(time.Millisecond, func() { f.Set(nil) })
	e.Run()
	if len(order) != 5 {
		t.Fatalf("woke %d of 5 waiters", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("waiters woke out of order: %v", order)
		}
	}
}

// TestBatchedSameInstantFIFO is the property test for batched dispatch:
// events that fan out same-instant work mid-dispatch, across several
// cohorts, must still execute in global (time, seq) FIFO order — the batch
// bypasses the heap, never the ordering contract.
func TestBatchedSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	id := 0
	add := func(delay Time, fanout int) {
		var fn func()
		myID := id
		id++
		fn = func() {
			order = append(order, myID)
			for f := 0; f < fanout; f++ {
				// Same-instant children: these must run after
				// everything already scheduled for this instant.
				child := id
				id++
				order := &order
				e.Schedule(0, func() { *order = append(*order, child) })
			}
		}
		e.Schedule(delay, fn)
	}
	// Three cohorts at 0µs, 1µs, 2µs; each root fans out two
	// same-instant children.
	for c := 0; c < 3; c++ {
		add(Time(c)*time.Microsecond, 2)
		add(Time(c)*time.Microsecond, 0)
	}
	e.Run()
	if len(order) != 12 {
		t.Fatalf("executed %d events, want 12", len(order))
	}
	// Roots get ids 0..5 at schedule time (two per cohort); children
	// get ids at execution time (6,7 then 8,9 then 10,11). Per cohort
	// the two roots run in schedule order, then the first root's
	// same-instant children run after both — FIFO across the
	// batch/heap boundary.
	want := []int{0, 1, 6, 7, 2, 3, 8, 9, 4, 5, 10, 11}
	for i := range order {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// genWorkload loads a fresh engine with a randomized self-extending event
// mix, hands it to drive to execute, and returns the execution order as
// event ids. Every event appends its id and may schedule children with
// random delays (including zero — same-instant chains). The generator is
// seeded and draws only inside events, so two run loops given the same seed
// see the exact same schedule requests for as long as they execute in the
// same order. onExec, when non-nil, is called at the end of every event.
func genWorkload(seed uint64, onExec, drive func(e *Engine)) []int {
	const roots, maxDepth = 20, 6
	e := NewEngine()
	rng := NewRNG(seed)
	var order []int
	nextID := 0
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := nextID
		nextID++
		return func() {
			order = append(order, id)
			if depth < maxDepth {
				for k := rng.Intn(3); k > 0; k-- {
					e.Schedule(Time(rng.Intn(5))*time.Microsecond, spawn(depth+1))
				}
			}
			if onExec != nil {
				onExec(e)
			}
		}
	}
	for i := 0; i < roots; i++ {
		e.Schedule(Time(rng.Intn(50))*time.Microsecond, spawn(0))
	}
	drive(e)
	return order
}

// TestBatchedRunMatchesReferenceLoops is the randomized differential test
// for the batched fast path: Run's dispatch (same-instant work bypassing the
// heap) must execute the exact order of the per-event reference loops —
// RunMax and a run under an all-zeros Chooser, which pop every event off
// the heap — and must keep it when the run is cut into RunUntil slices and
// resumed after Halts that land in the middle of a same-instant cohort.
func TestBatchedRunMatchesReferenceLoops(t *testing.T) {
	midCohortHalts := 0
	for seed := uint64(1); seed <= 60; seed++ {
		want := genWorkload(seed, nil, func(e *Engine) {
			if !e.RunMax(1 << 40) {
				t.Fatalf("seed %d: RunMax did not drain", seed)
			}
		})
		check := func(mode string, got []int) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s executed %d events in an order that differs from RunMax's %d",
					seed, mode, len(got), len(want))
			}
		}
		check("Run", genWorkload(seed, nil, func(e *Engine) { e.Run() }))
		check("zero-Chooser Run", genWorkload(seed, nil, func(e *Engine) {
			e.SetChooser(&fixedChooser{})
			e.Run()
		}))
		n := 0
		haltEveryFifth := func(e *Engine) {
			if n++; n%5 == 0 {
				e.Halt()
			}
		}
		check("RunUntil slices with Halts", genWorkload(seed, haltEveryFifth, func(e *Engine) {
			for e.Pending() > 0 {
				e.RunUntil(e.Now() + 3*time.Microsecond)
				if at, ok := e.NextEventAt(); ok && at == e.Now() {
					midCohortHalts++
				}
			}
		}))
	}
	if midCohortHalts == 0 {
		t.Fatal("no Halt landed mid-cohort; the resume arm tested nothing")
	}
}

// TestQueueShrinksAfterBurst pins the fix for the queue's backing array
// never shrinking: after a 1M-event burst fully drains, Run releases the
// backing memory, while steady-state queues below shrinkCap keep their
// free-list array.
func TestQueueShrinksAfterBurst(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	const burst = 1 << 20
	for i := 0; i < burst; i++ {
		e.Schedule(Time(i%1000)*time.Microsecond, fn)
	}
	if got := cap(e.q.ev); got < burst {
		t.Fatalf("burst capacity %d, want >= %d", got, burst)
	}
	e.Run()
	if got := cap(e.q.ev); got > shrinkCap {
		t.Fatalf("post-run capacity %d, want <= shrinkCap (%d)", got, shrinkCap)
	}
	// Steady state below the threshold: capacity must be retained (the
	// free-list trick), not churned.
	for i := 0; i < 100; i++ {
		e.Schedule(time.Microsecond, fn)
	}
	e.Run()
	c := cap(e.q.ev)
	for i := 0; i < 100; i++ {
		e.Schedule(time.Microsecond, fn)
	}
	e.Run()
	if cap(e.q.ev) != c {
		t.Fatalf("steady-state capacity churned: %d -> %d", c, cap(e.q.ev))
	}
}

// TestScheduleRunZeroAllocs guards the hot path at 0 allocs/op with no
// chooser installed.
func TestScheduleRunZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	i := 0
	allocs := testing.AllocsPerRun(20000, func() {
		e.Schedule(Time(i%64)*time.Microsecond, fn)
		i++
		if e.Pending() >= 1024 {
			e.RunUntil(e.Now() + time.Millisecond)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule/run path allocates %.1f allocs/op, want 0", allocs)
	}
}
