//go:build go1.23

// The tag is there for iter.Pull, a go1.23 standard-library symbol: go.mod
// stays at go 1.22 because the frozen bench/ module replaces this one and
// must build against it unchanged, and the tag lifts this one file's
// language version. There is no !go1.23 twin — an older toolchain fails to
// build the package, which is the honest statement of the requirement.

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated sequential process (a coroutine). Procs model user
// tasks: code that computes for simulated durations and blocks on events
// such as page faults. A proc has its own stack (a runtime coroutine, via
// iter.Pull), but the engine and all procs execute mutually exclusively:
// the engine is suspended inside next() while a proc runs, the proc is
// suspended inside yield() while the engine runs, and the switch between
// them is a direct hand-off that never visits the Go scheduler — so
// execution order is deterministic and a switch costs about as much as an
// event.
//
// All Proc methods must be called from the proc's own code (inside the
// function passed to Spawn); Wake-style operations happen through Future and
// the other synchronization types.
//
// A panic raised on a proc's stack is re-raised in whoever is stepping it,
// i.e. it comes out of Engine.Run with its value unchanged; runtime.Goexit
// (t.FailNow, t.SkipNow) likewise ends the goroutine that called Run.
type Proc struct {
	eng   *Engine
	name  string
	next  func() (struct{}, bool) // engine side: run the proc until it parks
	yield func(struct{}) bool     // proc side: park; false once killed
	stop  func()                  // engine side: unwind a parked proc
	dead  bool
	slot  int // index in eng.procs while live
}

// procKilled is what park raises in a proc that KillProcs is unwinding. It
// never escapes the spawn wrapper.
type procKilled struct{}

// Spawn creates a proc and schedules it to start immediately (at the current
// virtual time, after already-queued events for this instant). fn runs to
// completion in simulated time; when it returns the proc is dead.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:  e,
		name: name,
		slot: len(e.procs),
	}
	e.procs = append(e.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.exit()
			if r := recover(); r != nil && r != any(procKilled{}) {
				panic(r)
			}
		}()
		fn(p)
	})
	e.wake(p)
	return p
}

// procWake is a proc as an event target: its Run steps the proc. The
// conversion is free, so a wakeup allocates nothing (a method value would
// be a fresh closure on every use).
type procWake Proc

// Run runs the proc from the engine context until it parks or finishes.
func (w *procWake) Run() {
	if p := (*Proc)(w); !p.dead {
		p.next()
	}
}

// park returns control to the engine and waits until a wakeup runs the proc.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// exit marks the proc dead and drops it from the engine's live list.
func (p *Proc) exit() {
	if p.dead {
		return
	}
	p.dead = true
	live := p.eng.procs
	last := live[len(live)-1]
	live[p.slot] = last
	last.slot = p.slot
	live[len(live)-1] = nil
	p.eng.procs = live[:len(live)-1]
}

// KillProcs unwinds every live proc: one parked mid-function sees its park
// raise, so its deferred calls run and its stack is released; one that never
// started is dropped without running. Afterwards LiveProcs is 0 and wakeups
// still queued for the killed procs are no-ops. Call it between runs, from
// outside any proc, on an engine whose parked procs would otherwise be
// abandoned (a deadlocked explorer run, a closed mesh node) — an abandoned
// proc pins its goroutine and everything its stack references forever.
func (e *Engine) KillProcs() {
	for len(e.procs) > 0 {
		p := e.procs[len(e.procs)-1]
		p.stop()
		p.exit() // a never-started proc has no wrapper to do this
	}
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep advances the proc by d of simulated time (e.g. modelled CPU work).
// A negative d is clamped to zero, and even a zero-length sleep parks the
// proc behind events already queued for this instant — Sleep(0) is the
// fairness point that lets other procs and protocol events interleave.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.ScheduleRunAt(p.eng.now+d, (*procWake)(p))
	p.park()
}

// Yield gives other events scheduled for the current instant a chance to run.
func (p *Proc) Yield() { p.Sleep(0) }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// WaitGroup-like completion tracking -----------------------------------------

// Join blocks the calling proc until all the given futures are set.
func Join(p *Proc, fs ...*Future) {
	for _, f := range fs {
		f.Wait(p)
	}
}
