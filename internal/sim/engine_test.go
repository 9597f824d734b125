package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("final time = %v, want 30ms", e.Now())
	}
}

func TestScheduleSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if e.Now() != 0 {
		t.Fatalf("time advanced to %v for clamped event", e.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		e.ScheduleAt(0, func() {}) // in the past: must not rewind the clock
	})
	e.Run()
	if e.Now() != time.Second {
		t.Fatalf("clock rewound: now=%v", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.Schedule(time.Microsecond, rec)
		}
	}
	e.Schedule(0, rec)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*time.Microsecond {
		t.Fatalf("now = %v, want 99µs", e.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var ran []int
	e.Schedule(time.Millisecond, func() { ran = append(ran, 1) })
	e.Schedule(time.Hour, func() { ran = append(ran, 2) })
	end := e.RunUntil(time.Second)
	if end != time.Second {
		t.Fatalf("RunUntil returned %v, want 1s", end)
	}
	if len(ran) != 1 {
		t.Fatalf("wrong events ran: %v", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(ran) != 2 {
		t.Fatalf("deferred event never ran: %v", ran)
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(0, func() {})
	}
	e.Run()
	if e.Executed != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine()
		rng := NewRNG(42)
		var times []time.Duration
		var spawn func(depth int)
		spawn = func(depth int) {
			times = append(times, e.Now())
			if depth > 4 {
				return
			}
			k := rng.Intn(3) + 1
			for i := 0; i < k; i++ {
				d := time.Duration(rng.Intn(1000)) * time.Microsecond
				e.Schedule(d, func() { spawn(depth + 1) })
			}
		}
		e.Schedule(0, func() { spawn(0) })
		e.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
