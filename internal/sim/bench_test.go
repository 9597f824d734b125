package sim

import (
	"testing"
	"time"
)

// The engine microbenchmarks measure the simulator's own hot path, not a
// paper artifact: the cost of scheduling and dispatching one event, of one
// proc step (park/resume handoff), and of one future completion. The
// interesting numbers are events/sec (wall clock) and allocs/op — the
// schedule/run path must stay allocation-free in steady state so that large
// sweeps are not dominated by GC.

// BenchmarkScheduleRun measures the steady-state Schedule+dispatch cost per
// event. The queue is kept partially filled (drained every 1024 events) so
// sift operations see a realistic heap depth, and delays are jittered so
// events do not degenerate into pure FIFO order.
func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%64)*time.Microsecond, fn)
		if e.Pending() >= 1024 {
			e.Run()
		}
	}
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(e.Executed)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkScheduleRunDeep is BenchmarkScheduleRun with 64k cold events
// parked far in the future, so every sift traverses a deep heap.
func BenchmarkScheduleRunDeep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1<<16; i++ {
		e.Schedule(time.Duration(1+i)*time.Hour, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%64)*time.Microsecond, fn)
		if e.Pending() >= 1<<16+1024 {
			e.RunUntil(e.Now() + time.Second)
		}
	}
	e.RunUntil(e.Now() + time.Second)
	b.StopTimer()
	b.ReportMetric(float64(e.Executed)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkProcPingPong measures one proc step: the engine dispatching a
// proc wakeup plus the coroutine switch into the proc and back. Two procs
// alternate microsecond sleeps, which is the access pattern of every
// simulated task in the repo (compute, block, repeat).
func BenchmarkProcPingPong(b *testing.B) {
	e := NewEngine()
	steps := 0
	body := func(p *Proc) {
		for steps < b.N {
			steps++
			p.Sleep(time.Microsecond)
		}
	}
	e.Spawn("a", body)
	e.Spawn("b", body)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if steps < b.N {
		b.Fatalf("ran %d steps, want >= %d", steps, b.N)
	}
	b.ReportMetric(float64(e.Executed)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkFutureSetWait measures the future completion path: a proc waits,
// an event completes the future, the proc wakes. The Future itself is
// one-shot so one allocation per round is inherent; the benchmark guards
// the wake path against growing extra allocations.
func BenchmarkFutureSetWait(b *testing.B) {
	e := NewEngine()
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			f := NewFuture(e)
			e.Schedule(time.Microsecond, func() { f.Set(nil) })
			f.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(e.Executed)/b.Elapsed().Seconds(), "events/sec")
}
