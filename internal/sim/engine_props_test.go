package sim

import (
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
