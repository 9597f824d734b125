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
	if s.Jobs != 3 {
		t.Fatalf("Jobs = %d", s.Jobs)
	}
	if s.BusyTime != 30*time.Millisecond {
		t.Fatalf("BusyTime = %v", s.BusyTime)
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

func TestServerBacklogTracking(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "dev")
	s.DoRun(10*time.Millisecond, nil)
	s.DoRun(10*time.Millisecond, nil) // arrives with 10ms backlog
	if s.MaxBacklog() != 10*time.Millisecond {
		t.Fatalf("MaxBacklog = %v, want 10ms", s.MaxBacklog())
	}
	e.Run()
}

func TestServerUtilization(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "dev")
	s.DoRun(time.Second, nil)
	e.Schedule(2*time.Second, func() {})
	e.Run()
	u := s.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}
