// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing events in (time, sequence)
// order. Protocol state machines run as plain event callbacks; sequential
// user code (tasks that fault, compute and block) runs as a Proc, a
// coroutine that is always executed mutually exclusively with the engine, so
// the whole simulation is single-threaded in the logical sense and therefore
// reproducible bit-for-bit.
//
// The event queue is the simulator's hottest data structure: every paper
// artifact re-runs millions of events, so the queue is a hand-specialized
// 4-ary min-heap storing events by value in one backing slice. Pops only
// shrink the slice length, so the array doubles as a free list and
// steady-state Schedule/dispatch allocates nothing. An event has one target,
// a Runnable: closures travel as Func, proc wakeups as the proc itself, and
// pooled multi-stage operations as themselves — none of which allocates —
// and one run loop pops every event off the heap.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a point in virtual time, expressed as the duration since the start
// of the simulation.
type Time = time.Duration

// Runnable is an event target carried by interface value instead of a
// closure: a long-lived (typically pooled) object whose Run method resumes
// a multi-stage operation. Scheduling one allocates nothing — storing a
// pointer in an interface is allocation-free — which is what lets the
// transport message path run without per-message closures.
type Runnable interface {
	Run()
}

// Func adapts a plain callback to a Runnable. A func value is
// pointer-shaped, so the conversion to Runnable does not allocate.
type Func func()

// Run calls f.
func (f Func) Run() { f() }

// event is a scheduled target, stored by value in the queue (32 bytes). A
// nil run is a no-op event, used to anchor time.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events with equal time
	run Runnable
}

// before reports heap order by (at, seq). seq is unique and monotonic, so
// equal-time events dispatch FIFO in scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is an index-addressed 4-ary min-heap: children of slot i live
// at 4i+1..4i+4. Compared to container/heap this removes the per-event box
// allocation and the interface dispatch on every comparison, and the wider
// fan-out halves the tree depth (shallower sift-downs, and sift-down is the
// expensive direction because pops move the last element to the root).
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	// Sift the hole up; the event is written once at its final slot.
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.before(&q.ev[parent]) {
			break
		}
		q.ev[i] = q.ev[parent]
		i = parent
	}
	q.ev[i] = e
}

func (q *eventQueue) pop() event {
	root := q.ev[0]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // release the target so the free slot pins nothing
	q.ev = q.ev[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return root
}

// siftDown re-inserts e starting from the root, moving the smallest child up
// into the hole until e fits. A full group of four children is reduced
// without a data-dependent branch (a two-round tournament on less); the
// group's minimum is unique, because seq is, so the hole walks exactly the
// path the compare-and-branch loop used for partial groups would take.
func (q *eventQueue) siftDown(e event) {
	ev := q.ev
	n := len(ev)
	i := 0
	for {
		c := i<<2 + 1
		var min int
		if c+4 <= n {
			// a and b win the pairs (0,1) and (2,3); mask is all ones when
			// b beats a. The &3 only drops the bounds checks.
			g := ev[c : c+4 : c+4]
			a := int(less(&g[1], &g[0]))
			b := 2 + int(less(&g[3], &g[2]))
			mask := -int(less(&g[b&3], &g[a&3]))
			min = c + (a ^ (a^b)&mask)
		} else if c < n {
			min = c
			for j := c + 1; j < n; j++ {
				if ev[j].before(&ev[min]) {
					min = j
				}
			}
		} else {
			break
		}
		if !ev[min].before(&e) {
			break
		}
		ev[i] = ev[min]
		i = min
	}
	ev[i] = e
}

// less is before as a 0/1 value computed without a branch: the borrow out
// of the 128-bit subtraction (a.at, a.seq) − (b.at, b.seq). Event times are
// never negative (ScheduleRunAt clamps them to the present), so comparing
// them unsigned is exact. Where the answer feeds a branch anyway (sift-up,
// partial groups, the stop test) before stays: defining it through less
// measured no faster.
func less(a, b *event) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// shrinkCap is the backing-array capacity above which a drained queue
// releases its memory when a run completes. Steady-state runs (and the
// engine microbenchmarks, which cycle ~1k events) never cross it, so the
// free-list behaviour of the backing array is unchanged; only a queue left
// huge by a large scenario gives the memory back.
const shrinkCap = 1 << 12

// shrink releases an oversized backing array once the queue is empty.
func (q *eventQueue) shrink() {
	if len(q.ev) == 0 && cap(q.ev) > shrinkCap {
		q.ev = nil
	}
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	q     eventQueue
	procs []*Proc // live procs, for leak detection and KillProcs

	// chooser is the schedule-exploration hook (see choose.go); nil in
	// every production run, and the hot loop pays one nil check for it.
	chooser Chooser
	// scratch holds same-timestamp candidates while the chooser picks.
	scratch []event

	// Executed is the total number of events executed so far.
	Executed uint64

	// locals is what packages attach to the engine (Local).
	locals map[any]any
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Local returns the value a package attached to the engine under key,
// attaching mk() on first use. It holds state that every node one engine
// runs shares — the message free lists, whose boxes one node takes and
// another returns — and is meant for construction time: the engine never
// reads it.
func (e *Engine) Local(key any, mk func() any) any {
	v, ok := e.locals[key]
	if !ok {
		if e.locals == nil {
			e.locals = make(map[any]any)
		}
		v = mk()
		e.locals[key] = v
	}
	return v
}

// Schedule arranges for fn to run after delay. A negative delay is treated
// as zero. Events scheduled for the same instant run in scheduling order.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute virtual time at. Times in
// the past are clamped to the present. A nil fn schedules a no-op event,
// which still anchors the clock (RunUntil sees activity up to at).
func (e *Engine) ScheduleAt(at Time, fn func()) {
	var r Runnable
	if fn != nil {
		r = Func(fn)
	}
	e.ScheduleRunAt(at, r)
}

// ScheduleRun arranges for r.Run to execute after delay, allocation-free.
// A negative delay is treated as zero.
func (e *Engine) ScheduleRun(delay time.Duration, r Runnable) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleRunAt(e.now+delay, r)
}

// ScheduleRunAt arranges for r.Run to execute at absolute virtual time at.
// Times in the past are clamped to the present; a nil r is a no-op event.
func (e *Engine) ScheduleRunAt(at Time, r Runnable) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.q.push(event{at: at, seq: e.seq, run: r})
}

// wake enqueues a wakeup for p at the current instant, after events already
// queued for this instant (FIFO by sequence).
func (e *Engine) wake(p *Proc) { e.ScheduleRunAt(e.now, (*procWake)(p)) }

// maxTime is the largest representable deadline (Run's "no deadline").
const maxTime = Time(1<<62 - 1)

// Run executes events until no events remain. It returns the final virtual
// time. When a large scenario has drained, the queue's backing memory is
// released (see shrinkCap), so a long-lived engine does not pin the
// high-water mark of its biggest burst.
func (e *Engine) Run() Time {
	t := e.RunUntil(maxTime)
	if e.Pending() == 0 {
		e.q.shrink()
	}
	return t
}

// RunUntil executes events with time <= deadline, then stops. Events beyond
// the deadline remain queued. It returns the virtual time when it stopped
// (the deadline if it was reached, otherwise the time of the last event).
// The clock never moves backwards: a deadline before Now runs nothing and
// leaves Now where it is.
func (e *Engine) RunUntil(deadline Time) Time {
	e.run(deadline, math.MaxUint64)
	return e.now
}

// RunMax executes events until the queue drains or max events have run —
// the explorer's non-termination bound. It reports whether the queue
// drained (false means the bound was hit with events still pending).
func (e *Engine) RunMax(max uint64) bool {
	e.run(maxTime, max)
	return e.q.len() == 0
}

// run is the engine's one dispatch loop, behind Run, RunUntil and RunMax.
// It pops events in (time, seq) order — or, with a chooser installed, lets
// the chooser order each same-timestamp cohort — until the queue drains,
// max events have run, or the next event lies beyond deadline (the clock
// then reads deadline, unless deadline is already past).
func (e *Engine) run(deadline Time, max uint64) {
	for ; max > 0 && e.q.len() > 0; max-- {
		if e.q.ev[0].at > deadline {
			if deadline > e.now {
				e.now = deadline
			}
			return
		}
		var ev event
		if e.chooser != nil {
			ev = e.popChoose()
		} else {
			ev = e.q.pop()
		}
		e.now = ev.at
		e.Executed++
		if ev.run != nil {
			ev.run.Run()
		}
	}
}

// NextEventAt reports the virtual time of the earliest queued event, or
// false when no events are queued — the wall-clock runtime loop uses it to
// decide how long to sleep before the next timer is due.
func (e *Engine) NextEventAt() (Time, bool) {
	if e.q.len() == 0 {
		return 0, false
	}
	return e.q.ev[0].at, true
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.q.len() }

// LiveProcs reports the number of procs that have been spawned and have not
// yet finished. Useful for detecting stuck protocol operations in tests.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// String implements fmt.Stringer for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v pending=%d procs=%d}", e.now, e.Pending(), len(e.procs))
}
