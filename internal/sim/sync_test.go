package sim

import (
	"testing"
	"time"
)

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, 2)
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn("worker", func(p *Proc) {
			sem.Acquire(p)
			active++
			if active > peak {
				peak = active
			}
			p.Sleep(time.Millisecond)
			active--
			sem.Release()
		})
	}
	e.Run()
	if peak != 2 {
		t.Fatalf("peak concurrency = %d, want 2", peak)
	}
	if sem.tokens != 2 {
		t.Fatalf("tokens leaked: %d available, want 2", sem.tokens)
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, 0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond) // arrival order 0..4
			sem.Acquire(p)
			order = append(order, i)
		})
	}
	e.Schedule(time.Millisecond, func() {
		for i := 0; i < 5; i++ {
			sem.Release()
		}
	})
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("wakeup order = %v, want FIFO", order)
		}
	}
}

// TestMutexMutualExclusion: a one-token semaphore is the procs' mutex.
func TestMutexMutualExclusion(t *testing.T) {
	e := NewEngine()
	mu := NewSemaphore(e, 1)
	inside := false
	violations := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			mu.Acquire(p)
			if inside {
				violations++
			}
			inside = true
			p.Sleep(time.Millisecond)
			inside = false
			mu.Release()
		})
	}
	e.Run()
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
}
