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
// steady-state Schedule/dispatch allocates nothing. Proc wakeups carry the
// *Proc in the event itself (no method-value closure), keeping the
// park/resume path allocation-free too.
//
// Dispatch batches same-instant work: once the heap is clean at the
// current instant, anything scheduled for that instant (proc wakeups,
// future completions, zero-delay chains) is appended to a flat dispatch
// batch instead of round-tripping through the heap — global sequence
// numbers keep the FIFO contract, and each batched event saves a full
// push+siftDown+pop.
package sim

import (
	"fmt"
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

// event is a scheduled callback, stored by value in the queue. Exactly one
// of fn, proc and run is set: fn for plain callbacks, proc for the
// allocation-free proc-wakeup fast path, run for pooled Runnable stages
// (all nil is a no-op event, used to anchor time).
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events with equal time
	fn   func()
	proc *Proc
	run  Runnable
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
	q.ev[n] = event{} // release fn/proc so the free slot pins nothing
	q.ev = q.ev[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return root
}

// siftDown re-inserts e starting from the root, moving the smallest child up
// into the hole until e fits.
func (q *eventQueue) siftDown(e event) {
	n := len(q.ev)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if q.ev[j].before(&q.ev[min]) {
				min = j
			}
		}
		if !q.ev[min].before(&e) {
			break
		}
		q.ev[i] = q.ev[min]
		i = min
	}
	q.ev[i] = e
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
	now    Time
	seq    uint64
	q      eventQueue
	procs  []*Proc // live procs, for leak detection and KillProcs
	halted bool

	// batch holds the same-timestamp cohort currently being dispatched:
	// batch[batchPos:] are executed in order, and events scheduled for the
	// current instant are appended (their sequence numbers are globally
	// monotonic, so append preserves FIFO) instead of round-tripping
	// through the heap. The cohort head itself dispatches straight off the
	// heap; only the rest of a multi-event cohort transits the batch.
	batch    []event
	batchPos int
	// dispatching is true while the run loop is executing events —
	// the window in which a same-instant schedule may join the batch even
	// when the batch is momentarily empty (singleton cohorts skip it).
	dispatching bool

	// chooser is the schedule-exploration hook (see choose.go); nil in
	// every production run, and the hot loop pays one nil check for it.
	chooser Chooser
	// scratch holds same-timestamp candidates while the chooser picks.
	scratch []event

	// Executed is the total number of events executed so far.
	Executed uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// enqueue routes one fully-formed event to its resting place: the live
// dispatch batch for same-instant work, or the heap.
func (e *Engine) enqueue(ev event) {
	if ev.at == e.now && e.chooser == nil &&
		(e.dispatching || e.batchPos < len(e.batch)) &&
		(e.q.len() == 0 || e.q.ev[0].at != ev.at) {
		// Same-instant schedule during dispatch with the heap clean at the
		// current instant: ev's sequence number exceeds every queued
		// event's, and once the heap is clean at an instant it stays clean
		// (every later same-instant schedule takes this path too), so
		// appending to the batch preserves global FIFO while skipping a
		// heap push+pop round trip. The batch-live disjunct covers
		// scheduling against a batch parked by a mid-cohort Halt.
		e.batch = append(e.batch, ev)
		return
	}
	e.q.push(ev)
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
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.enqueue(event{at: at, seq: e.seq, fn: fn})
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
// Times in the past are clamped to the present. Like ScheduleAt but the
// event carries the Runnable itself, so no closure is materialized.
func (e *Engine) ScheduleRunAt(at Time, r Runnable) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.enqueue(event{at: at, seq: e.seq, run: r})
}

// scheduleProcAt enqueues a wakeup for p at absolute time at. This is the
// allocation-free fast path behind Sleep, Future and the sync primitives:
// the event carries the proc pointer directly instead of a p.step method
// value (which Go materializes as a fresh closure on every use).
func (e *Engine) scheduleProcAt(at Time, p *Proc) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.enqueue(event{at: at, seq: e.seq, proc: p})
}

// wake enqueues a wakeup for p at the current instant, after events already
// queued for this instant (FIFO by sequence).
func (e *Engine) wake(p *Proc) { e.scheduleProcAt(e.now, p) }

// Halt stops the run loop after the current event finishes.
func (e *Engine) Halt() { e.halted = true }

// maxTime is the largest representable deadline (Run's "no deadline").
const maxTime = Time(1<<62 - 1)

// Run executes events until no events remain or Halt is called. It returns
// the final virtual time. When a large scenario has drained, the queue's
// backing memory is released (see shrinkCap), so a long-lived engine does
// not pin the high-water mark of its biggest burst.
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
func (e *Engine) RunUntil(deadline Time) Time {
	e.halted = false
	if e.chooser != nil {
		return e.runChoose(deadline)
	}
	e.dispatching = true
	for !e.halted {
		var ev event
		if i := e.batchPos; i < len(e.batch) {
			ev = e.batch[i]
			e.batch[i] = event{} // release fn/proc so the slot pins nothing
			e.batchPos = i + 1
		} else {
			// Batch drained: execute the heap head directly. Cohort mates
			// still in the heap pop one at a time (cheaper than staging
			// them through the batch); only same-instant events born during
			// dispatch transit the batch, and each of those saves a full
			// heap push+pop.
			e.batch = e.batch[:0]
			e.batchPos = 0
			if e.q.len() == 0 {
				break
			}
			t := e.q.ev[0].at
			if t > deadline {
				e.now = deadline
				e.dispatching = false
				return e.now
			}
			e.now = t
			ev = e.q.pop()
		}
		e.Executed++
		if ev.proc != nil {
			ev.proc.step()
		} else if ev.run != nil {
			ev.run.Run()
		} else if ev.fn != nil {
			ev.fn()
		}
	}
	e.dispatching = false
	return e.now
}

// runChoose is the schedule-exploration run loop: per-event pops under
// chooser control. Batched dispatch is disabled here — the chooser's
// ChoiceEvent points are defined against the heap's same-timestamp
// candidate set, so cohorts must stay in the heap for it to see them.
func (e *Engine) runChoose(deadline Time) Time {
	e.flushBatch()
	for e.q.len() > 0 && !e.halted {
		if e.q.ev[0].at > deadline {
			e.now = deadline
			return e.now
		}
		ev := e.popChoose()
		e.now = ev.at
		e.Executed++
		if ev.proc != nil {
			ev.proc.step()
		} else if ev.run != nil {
			ev.run.Run()
		} else if ev.fn != nil {
			ev.fn()
		}
	}
	return e.now
}

// flushBatch returns any not-yet-dispatched cohort events to the heap (they
// keep their (time, seq) keys, so order is unchanged). Called when leaving
// batched dispatch: installing a chooser, or draining into RunMax.
func (e *Engine) flushBatch() {
	for ; e.batchPos < len(e.batch); e.batchPos++ {
		e.q.push(e.batch[e.batchPos])
		e.batch[e.batchPos] = event{}
	}
	e.batch = e.batch[:0]
	e.batchPos = 0
}

// NextEventAt reports the virtual time of the earliest queued event, or
// false when no events are queued. Only meaningful between runs (it does
// not look inside a dispatch batch mid-run) — the wall-clock runtime loop
// uses it to decide how long to sleep before the next timer is due.
func (e *Engine) NextEventAt() (Time, bool) {
	if e.batchPos < len(e.batch) {
		return e.now, true
	}
	if e.q.len() == 0 {
		return 0, false
	}
	return e.q.ev[0].at, true
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int {
	return e.q.len() + len(e.batch) - e.batchPos
}

// LiveProcs reports the number of procs that have been spawned and have not
// yet finished. Useful for detecting stuck protocol operations in tests.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// String implements fmt.Stringer for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v pending=%d procs=%d}", e.now, e.Pending(), len(e.procs))
}
