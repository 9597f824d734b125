package sim

import (
	"testing"
	"time"
)

func TestServerSerializesJobs(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "dev")
	var done []Time
	for i := 0; i < 3; i++ {
		s.DoRun(10*time.Millisecond, Func(func() { done = append(done, e.Now()) }))
	}
	e.Run()
	want := []Time{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
}

func TestServerIdleGapsDontAccumulate(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "dev")
	var second Time
	s.DoRun(time.Millisecond, nil)
	e.Schedule(100*time.Millisecond, func() {
		s.DoRun(time.Millisecond, Func(func() { second = e.Now() }))
	})
	e.Run()
	if second != 101*time.Millisecond {
		t.Fatalf("second job done at %v, want 101ms (no phantom backlog)", second)
	}
}

func TestServerReturnsCompletionTime(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "dev")
	if got := s.DoRun(5*time.Millisecond, nil); got != 5*time.Millisecond {
		t.Fatalf("completion = %v", got)
	}
	if got := s.DoRun(5*time.Millisecond, nil); got != 10*time.Millisecond {
		t.Fatalf("completion = %v", got)
	}
	if s.Idle() {
		t.Fatal("server should be busy")
	}
	e.Run()
	if !s.Idle() {
		t.Fatal("server should be idle after run")
	}
}

func TestServerNegativeCostClamped(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "dev")
	ran := false
	s.DoRun(-time.Second, Func(func() { ran = true }))
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("negative cost mishandled: ran=%v now=%v", ran, e.Now())
	}
}
