package rt

import (
	"context"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
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

// goid is the calling goroutine's ID, from its stack header.
func goid() uint64 {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.ParseUint(fields[1], 10, 64)
	return id
}

// startedIdle returns a running loop whose goroutine has finished its first
// turn and gone to sleep: the engine is idle.
func startedIdle(t *testing.T) (*Loop, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	l := NewLoop(eng)
	l.Start(context.Background())
	t.Cleanup(l.Stop)
	waitIdle(t, l)
	return l, eng
}

func waitIdle(t *testing.T, l *Loop) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		l.mu.Lock()
		idle := !l.owned && len(l.inj) == 0
		l.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("loop never went idle")
		}
	}
}

// Do on an idle engine runs the closure on the caller, before returning;
// Do and Inject from inside a closure queue behind it and never recurse;
// Do on an owned engine leaves the closure to the owner.
func TestDoRunsInlineWhenIdleAndQueuesWhenOwned(t *testing.T) {
	l, _ := startedIdle(t)
	me := goid()

	var order []string // engine state: read only after a Call
	var ranOn uint64
	l.Do(func() {
		ranOn = goid()
		l.Do(func() { order = append(order, "nested Do") })
		l.Inject(func() { order = append(order, "nested Inject") })
		order = append(order, "outer")
	})
	if ranOn != me {
		t.Fatalf("Do on an idle engine ran on goroutine %d, caller is %d", ranOn, me)
	}
	// The nested ones arrived during the borrowed turn: the loop goroutine
	// was woken for them.
	waitIdle(t, l)
	l.Call(func() {})
	if want := []string{"outer", "nested Do", "nested Inject"}; !slices.Equal(order, want) {
		t.Fatalf("ran %v, want %v", order, want)
	}

	// An owner is inside (parked in a closure): Do must return at once, and
	// the closure runs once the owner has left its own — on the owner, or on
	// the loop goroutine it hands over to, never on the caller.
	waitIdle(t, l)
	inside, release := make(chan struct{}), make(chan struct{})
	var queuedOn uint64
	go l.Do(func() {
		close(inside)
		<-release
	})
	<-inside
	ran := make(chan struct{})
	l.Do(func() { queuedOn = goid(); close(ran) })
	select {
	case <-ran:
		t.Fatal("Do on an owned engine ran its closure before the owner left its own")
	default:
	}
	close(release)
	<-ran
	if queuedOn == me {
		t.Fatalf("Do on an owned engine ran on the caller")
	}
}

// Inject never runs the closure on the caller, idle engine or not. The
// frozen benchmark probe depends on it: its closure sends on an unbuffered
// channel the injecting goroutine reads only after Inject returns.
func TestInjectNeverRunsOnCaller(t *testing.T) {
	l, _ := startedIdle(t)
	me := goid()
	for i := 0; i < 200; i++ {
		ran := make(chan uint64)
		l.Inject(func() { ran <- goid() })
		select {
		case on := <-ran:
			if on == me {
				t.Fatalf("round %d: Inject ran its closure on the caller", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: injected closure blocked on its unbuffered send: it is on the caller, or nobody runs it", i)
		}
	}
}

// TestLoopRetiresInjectionBeforeNext with every closure handed over through
// Do: the ordering rule belongs to the drain, whoever runs it.
func TestDoRetiresClosureBeforeNext(t *testing.T) {
	l, eng := startedIdle(t)
	for round := 0; round < 100; round++ {
		procRan := false
		seenByB := make(chan bool, 1)
		l.Do(func() {
			fut := sim.NewFutureOf[int](eng)
			eng.Spawn("waiter", func(p *sim.Proc) {
				fut.Wait(p)
				procRan = true
			})
			l.Do(func() { fut.Set(1) })         // A
			l.Do(func() { seenByB <- procRan }) // B
		})
		select {
		case ran := <-seenByB:
			if !ran {
				t.Fatalf("round %d: closure B ran before the proc closure A woke", round)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("closure B never ran")
		}
	}
}

// A timer armed during a borrowed turn is the loop goroutine's to fire: the
// borrower wakes it on the way out, and it fires on the wall clock.
func TestTimerArmedByBorrowedOwnerFires(t *testing.T) {
	l, eng := startedIdle(t)
	me := goid()
	fired := make(chan time.Duration, 1)
	wallStart := time.Now()
	var armedOn uint64
	l.Do(func() {
		armedOn = goid()
		eng.Schedule(30*time.Millisecond, func() { fired <- time.Since(wallStart) })
	})
	if armedOn != me {
		t.Fatalf("timer armed on goroutine %d, want the borrowing caller %d", armedOn, me)
	}
	select {
	case took := <-fired:
		if took < 25*time.Millisecond || took > 200*time.Millisecond {
			t.Fatalf("timer fired after %v, want ~30ms (the idle loop's next wake-up is 250ms away)", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer armed by a borrowing owner never fired")
	}
}

// Stop waits for a borrowing owner to leave the engine, and whatever is
// handed over afterwards is dropped, not queued for ever.
func TestStopWaitsForBorrowedOwnerAndDropsLater(t *testing.T) {
	l, _ := startedIdle(t)
	inside, release := make(chan struct{}), make(chan struct{})
	var left atomic.Bool
	go l.Do(func() {
		close(inside)
		<-release
		left.Store(true)
	})
	<-inside
	stopped := make(chan struct{})
	go func() {
		l.Stop()
		if !left.Load() {
			t.Error("Stop returned while a borrowing owner was still inside the engine")
		}
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned with an owner inside")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-stopped

	l.Do(func() { t.Error("Do ran a closure after Stop") })
	l.Inject(func() { t.Error("Inject ran a closure after Stop") })
	l.mu.Lock()
	queued := len(l.inj)
	l.mu.Unlock()
	if queued != 0 {
		t.Fatalf("%d closures queued on a stopped loop", queued)
	}
}

// Before Start the engine belongs to whoever assembles the node around it:
// Do only queues, even though no goroutine is inside, and Start's first
// turn runs what was queued, in order.
func TestDoBeforeStartQueues(t *testing.T) {
	l := NewLoop(sim.NewEngine())
	var order []int
	l.Do(func() { order = append(order, 1) })
	l.Inject(func() { order = append(order, 2) })
	if len(order) != 0 {
		t.Fatalf("closures ran before Start: %v", order)
	}
	l.Start(context.Background())
	defer l.Stop()
	if !l.Call(func() {}) {
		t.Fatal("Call failed on a live loop")
	}
	if !slices.Equal(order, []int{1, 2}) {
		t.Fatalf("ran %v after Start, want [1 2]", order)
	}
}

// Eight goroutines mixing Do and Inject against a plain counter in engine
// state: every closure runs exactly once, and under -race this is the proof
// that owners — borrowing or not — exclude one another.
func TestDoInjectMutualExclusion(t *testing.T) {
	l, eng := startedIdle(t)
	const workers, each = 8, 2000
	counter := 0 // engine state: no atomics, no lock
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				bump := func() { counter++; eng.Schedule(0, func() { counter++ }) }
				if (w+i)%2 == 0 {
					l.Do(bump)
				} else {
					l.Inject(bump)
				}
			}
		}()
	}
	wg.Wait()
	waitIdle(t, l)
	var got int
	l.Call(func() { got = counter })
	if want := 2 * workers * each; got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}
