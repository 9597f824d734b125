package rt

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"asvm/internal/sim"
)

// A timer scheduled through the engine must fire on the wall clock, not
// instantly and not never.
func TestLoopFiresTimersOnWallClock(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	defer l.Stop()

	fired := make(chan time.Duration, 1)
	wallStart := time.Now()
	l.Inject(func() {
		eng.Schedule(30*time.Millisecond, func() {
			fired <- time.Since(wallStart)
		})
	})
	select {
	case took := <-fired:
		if took < 25*time.Millisecond {
			t.Fatalf("timer fired after %v wall time, want >= ~30ms", took)
		}
		if took > 2*time.Second {
			t.Fatalf("timer took %v, far beyond its 30ms deadline", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

// Procs — the coroutine layer every workload is written in — must run to
// completion under the wall-clock loop, including virtual sleeps.
func TestLoopRunsProcs(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	defer l.Stop()

	done := make(chan sim.Time, 1)
	l.Inject(func() {
		eng.Spawn("worker", func(p *sim.Proc) {
			p.Sleep(5 * time.Millisecond)
			p.Sleep(5 * time.Millisecond)
			done <- p.Now()
		})
	})
	select {
	case now := <-done:
		if now < 10*time.Millisecond {
			t.Fatalf("proc finished at virtual t=%v, want >= 10ms", now)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("proc never finished")
	}
}

// Injections from many goroutines must all execute, and Call must observe
// engine state coherently.
func TestLoopInjectConcurrent(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	defer l.Stop()

	const n = 200
	var ran atomic.Int64
	for i := 0; i < n; i++ {
		go l.Inject(func() { ran.Add(1) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d injections ran", ran.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}

	var pending int
	if !l.Call(func() { pending = eng.Pending() }) {
		t.Fatal("Call failed on a live loop")
	}
	if pending != 0 {
		t.Fatalf("engine has %d pending events after quiesce", pending)
	}
}

// Stop must terminate the loop goroutine and make later Calls fail
// cleanly instead of hanging.
func TestLoopStop(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	l.Stop()
	if l.Call(func() {}) {
		t.Fatal("Call succeeded after Stop")
	}
}

// What one injection makes runnable retires before the next injection is
// taken — the simulator's delivery order. A and B are queued back to back
// (from inside an injection, so the loop cannot run between them): A
// completes the future a parked proc waits on, and B must find that proc
// already run. With every queued injection executed before any engine
// event, B ran first — on the mesh, the request behind a grant gave the
// page away before the granted proc had used it.
func TestLoopRetiresInjectionBeforeNext(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	defer l.Stop()

	for round := 0; round < 100; round++ {
		procRan := false
		seenByB := make(chan bool, 1)
		l.Inject(func() {
			fut := sim.NewFutureOf[int](eng)
			eng.Spawn("waiter", func(p *sim.Proc) {
				fut.Wait(p)
				procRan = true
			})
			l.Inject(func() { fut.Set(1) })         // A
			l.Inject(func() { seenByB <- procRan }) // B
		})
		select {
		case ran := <-seenByB:
			if !ran {
				t.Fatalf("round %d: injection B ran before the proc injection A woke", round)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("injection B never ran")
		}
	}
}
