package sim

import (
	"runtime"
	"testing"
	"time"
)

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	e.Run()
	if woke != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("proc leak: %d live", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * time.Millisecond)
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(time.Millisecond)
		trace = append(trace, "b1")
		p.Sleep(2 * time.Millisecond)
		trace = append(trace, "b3")
	})
	e.Run()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcFutureWait(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	var got interface{}
	e.Spawn("waiter", func(p *Proc) {
		v, err := f.Wait(p)
		if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
		got = v
	})
	e.Schedule(7*time.Millisecond, func() { f.Set(99) })
	e.Run()
	if got != 99 {
		t.Fatalf("future value = %v, want 99", got)
	}
	if e.Now() != 7*time.Millisecond {
		t.Fatalf("now = %v, want 7ms", e.Now())
	}
}

func TestFutureWaitAfterSet(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	f.Set("x")
	var got interface{}
	e.Spawn("late", func(p *Proc) {
		before := p.Now()
		v, _ := f.Wait(p)
		got = v
		if p.Now() != before {
			t.Errorf("Wait on done future advanced time")
		}
	})
	e.Run()
	if got != "x" {
		t.Fatalf("got %v, want x", got)
	}
}

func TestFutureMultipleWaiters(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	n := 0
	for i := 0; i < 8; i++ {
		e.Spawn("w", func(p *Proc) {
			f.Wait(p)
			n++
		})
	}
	e.Schedule(time.Millisecond, func() { f.Set(nil) })
	e.Run()
	if n != 8 {
		t.Fatalf("only %d of 8 waiters woke", n)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	f.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double Set did not panic")
		}
	}()
	f.Set(2)
}

func TestFutureOnDone(t *testing.T) {
	e := NewEngine()
	f := NewFuture(e)
	var got interface{}
	f.OnDone(func(v interface{}, err error) { got = v })
	e.Schedule(time.Millisecond, func() { f.Set(5) })
	e.Run()
	if got != 5 {
		t.Fatalf("OnDone saw %v, want 5", got)
	}
	// Registration after completion fires too.
	fired := false
	f.OnDone(func(v interface{}, err error) { fired = true })
	e.Run()
	if !fired {
		t.Fatal("OnDone after completion never fired")
	}
}

func TestJoin(t *testing.T) {
	e := NewEngine()
	fs := []*Future{NewFuture(e), NewFuture(e), NewFuture(e)}
	var doneAt Time
	e.Spawn("joiner", func(p *Proc) {
		Join(p, fs...)
		doneAt = p.Now()
	})
	e.Schedule(3*time.Millisecond, func() { fs[1].Set(nil) })
	e.Schedule(1*time.Millisecond, func() { fs[0].Set(nil) })
	e.Schedule(9*time.Millisecond, func() { fs[2].Set(nil) })
	e.Run()
	if doneAt != 9*time.Millisecond {
		t.Fatalf("join completed at %v, want 9ms", doneAt)
	}
}

func TestProcYield(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Yield()
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b1")
	})
	e.Run()
	// a yields after a1 so b runs before a2.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if i >= len(trace) || trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() Time {
		e := NewEngine()
		rng := NewRNG(7)
		bar := NewBarrier(e, 50)
		for i := 0; i < 50; i++ {
			d := time.Duration(rng.Intn(5000)) * time.Microsecond
			e.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				bar.Await(p)
				p.Sleep(time.Millisecond)
			})
		}
		return e.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic end time: %v vs %v", a, b)
	}
}

// TestProcSteppedAcrossGoroutines: a proc belongs to its engine, not to the
// goroutine that spawned it or last stepped it. The wall-clock loop
// (rt.Loop) builds the engine on one goroutine and runs it on another; here
// every RunUntil is on a fresh one.
func TestProcSteppedAcrossGoroutines(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Spawn("mover", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(time.Millisecond)
			trace = append(trace, p.Now())
		}
	})
	for i := 1; i <= 4; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.RunUntil(Time(i) * time.Millisecond)
		}()
		<-done
		if len(trace) != i || trace[i-1] != Time(i)*time.Millisecond {
			t.Fatalf("after run %d: trace = %v", i, trace)
		}
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("proc leak: %d live", e.LiveProcs())
	}
}

// TestProcDeepStackAcrossParks recurses through about 1 MB of proc stack,
// parking at every level on the way down and again on the way back, so the
// stack is grown (copied) many times between switches and every frame must
// survive them.
func TestProcDeepStackAcrossParks(t *testing.T) {
	const depth = 1024
	var descend func(p *Proc, d int) int
	descend = func(p *Proc, d int) int {
		var frame [1024]byte // ~1 KB per level
		for i := range frame {
			frame[i] = byte(d)
		}
		p.Sleep(time.Microsecond)
		sum := 0
		if d > 1 {
			sum = descend(p, d-1)
		}
		p.Sleep(time.Microsecond)
		for _, b := range frame {
			if b != byte(d) {
				t.Errorf("frame at depth %d was corrupted across a park", d)
				break
			}
		}
		return sum + d
	}
	e := NewEngine()
	got := 0
	e.Spawn("deep", func(p *Proc) { got = descend(p, depth) })
	// A second proc keeps the engine switching between two stacks.
	e.Spawn("other", func(p *Proc) {
		for i := 0; i < 2*depth; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	e.Run()
	if want := depth * (depth + 1) / 2; got != want {
		t.Fatalf("deep recursion returned %d, want %d", got, want)
	}
	if e.Now() != 2*depth*time.Microsecond {
		t.Fatalf("now = %v, want %v", e.Now(), 2*depth*time.Microsecond)
	}
}

// TestProcPanicReachesRunCaller: a panic on a proc's stack comes out of Run
// on the goroutine that called it, carrying the value it was raised with —
// which is what lets the explorer fold it into a finding.
func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	boom := &struct{ why string }{"illegal transition"}
	var deferred bool
	e.Spawn("bystander", func(p *Proc) { p.Sleep(time.Second) })
	e.Spawn("doomed", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(time.Millisecond)
		panic(boom)
	})
	var got interface{}
	func() {
		defer func() { got = recover() }()
		e.Run()
		t.Error("Run returned normally past a proc's panic")
	}()
	if got != interface{}(boom) {
		t.Fatalf("recovered %#v, want the proc's own panic value %p", got, boom)
	}
	if !deferred {
		t.Error("the panicking proc's defer did not run")
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want only the bystander", e.LiveProcs())
	}
	// The engine is still usable: the bystander finishes on the next Run.
	e.Run()
	if e.LiveProcs() != 0 || e.Now() != time.Second {
		t.Fatalf("after resume: live=%d now=%v", e.LiveProcs(), e.Now())
	}
}

// TestProcGoexitEndsRun: runtime.Goexit on a proc's stack — which is what
// t.FailNow, t.Fatal and t.SkipNow do — ends the goroutine that is running
// the engine (its defers run) instead of leaving Run waiting forever for a
// proc that will never hand control back.
func TestProcGoexitEndsRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("quitter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	exited := make(chan struct{})
	returned := false
	go func() {
		defer close(exited)
		e.Run()
		returned = true
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after Goexit inside a proc")
	}
	if returned {
		t.Fatal("Run returned normally; Goexit should have unwound its caller")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}

	// The testing package's flavour: the subtest ends (as skipped) at the
	// proc's SkipNow instead of hanging in Run.
	t.Run("SkipNow", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("skipper", func(p *Proc) { t.SkipNow() })
		e.Run()
		t.Error("Run returned past t.SkipNow inside a proc")
	})
}

// TestProcSwitchZeroAllocs guards the park/resume path: once a proc exists,
// stepping it allocates nothing.
func TestProcSwitchZeroAllocs(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	defer e.KillProcs()
	e.RunUntil(time.Millisecond)
	allocs := testing.AllocsPerRun(10000, func() {
		e.RunUntil(e.Now() + time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("proc switch allocates %.1f allocs/op, want 0", allocs)
	}
}
