// Package rt is the runtime seam between the deterministic simulator and
// real wall-clock execution. The whole protocol stack — vm kernels, the
// ASVM state machines, the reliability layer's RTO/backoff timers — is
// written against sim.Engine: single-threaded event dispatch over a
// virtual clock. A Loop re-hosts that engine on the wall clock without
// changing a line of protocol code: virtual time is mapped 1:1 onto wall
// time since the loop started, events run when the wall clock catches up
// to their virtual timestamp, and external goroutines (socket readers,
// control servers) hand work to the engine through a thread-safe
// injection queue instead of touching it directly.
//
// The invariant the seam preserves is the engine's own: everything that
// touches engine state — events, procs, protocol handlers, queued
// closures — executes on the engine's owner, mutually exclusively: the loop
// goroutine, or a Do caller that found the engine idle. The rest of the
// process only ever calls Do/Inject/Call, so the protocol core remains as
// single-threaded (and race-free) live as it is simulated.
package rt

import (
	"context"
	"sync"
	"time"

	"asvm/internal/sim"
)

// Loop drives a sim.Engine against the wall clock.
type Loop struct {
	eng   *sim.Engine
	start time.Time

	mu      sync.Mutex
	inj     []func()
	spare   []func()   // the last batch's backing array, for the next swap
	owned   bool       // a goroutine is inside the engine, or assembling it before Start
	stopped bool       // nothing queued from here on will ever run
	left    *sync.Cond // an owner left the engine; Stop waits on it

	wake   chan struct{}
	done   chan struct{}
	cancel context.CancelFunc

	startOnce sync.Once
	stopOnce  sync.Once
}

// NewLoop wraps eng, which from then on only its owner may touch: until
// Start whoever assembles the node around it (Do and Inject only queue),
// afterwards whoever is inside a queued closure.
func NewLoop(eng *sim.Engine) *Loop {
	l := &Loop{
		eng:   eng,
		owned: true,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	l.left = sync.NewCond(&l.mu)
	return l
}

// Start releases the engine and launches the loop goroutine. The loop runs
// until ctx is cancelled or Stop is called. Virtual time zero is the moment
// Start is called.
func (l *Loop) Start(ctx context.Context) {
	l.startOnce.Do(func() {
		ctx, l.cancel = context.WithCancel(ctx)
		l.start = time.Now()
		l.mu.Lock()
		l.owned = false
		l.mu.Unlock()
		go l.run(ctx)
	})
}

// Stop cancels the loop and returns once the loop goroutine has exited and
// no other owner is inside the engine. Closures still queued, and any
// handed to Do or Inject afterwards, are dropped.
func (l *Loop) Stop() {
	l.stopOnce.Do(func() {
		if l.cancel != nil {
			l.cancel()
		}
		l.mu.Lock()
		l.stopped, l.inj = true, nil
		for l.cancel != nil && l.owned { // never started: the assembler's for good
			l.left.Wait()
		}
		l.mu.Unlock()
	})
	if l.cancel != nil {
		<-l.done
	}
}

// queue appends fn, unless the loop has stopped, and reports whether the
// engine is idle.
func (l *Loop) queue(fn func()) bool {
	l.mu.Lock()
	if !l.stopped {
		l.inj = append(l.inj, fn)
	}
	idle := !l.owned && !l.stopped
	l.mu.Unlock()
	return idle
}

// Inject queues fn to run on the engine at the current virtual instant,
// after events already due, and never runs it on the caller: it is safe
// from inside the engine (a self-send queues, it does not recurse), and fn
// may block on something the caller does next. Closures run in arrival
// order, and what one makes runnable runs before the next is taken.
func (l *Loop) Inject(fn func()) {
	if l.queue(fn) {
		l.wakeLoop()
	}
}

// Do queues fn like Inject, and whoever brings work to an idle engine runs
// it: the caller takes the engine and drains the queue on its own goroutine
// — a socket reader runs the handler of the frame it just decoded, a client
// its own operation — instead of waking the loop goroutine to. On an owned
// engine fn is left to the owner. A borrowing owner drains only the batch it
// found; more work or a pending timer it hands to the loop goroutine.
func (l *Loop) Do(fn func()) {
	if l.queue(fn) {
		if _, handOver := l.turn(false); handOver {
			l.wakeLoop()
		}
	}
}

// Call runs fn on the engine and waits for it to finish — the synchronous
// flavour of Do, for reading engine or protocol state from outside.
// Returns false (without running fn) if the loop has stopped.
func (l *Loop) Call(fn func()) bool {
	ran := make(chan struct{})
	l.Do(func() {
		fn()
		close(ran)
	})
	select {
	case <-ran:
		return true
	case <-l.done:
		// The loop may have executed fn on its final drain; report
		// honestly either way.
		select {
		case <-ran:
			return true
		default:
			return false
		}
	}
}

// maxIdleWait bounds how long the loop sleeps with no queued events: a
// periodic wake costs nothing and guards against a missed signal ever
// stalling delivery.
const maxIdleWait = 250 * time.Millisecond

func (l *Loop) wakeLoop() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// turn takes the engine, if it is idle, and runs the queued closures — one
// batch, or batch after batch untilEmpty. It reports how long the engine may
// sleep, and whether work or timers are left for the loop goroutine.
func (l *Loop) turn(untilEmpty bool) (wait time.Duration, handOver bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owned {
		return maxIdleWait, false // its owner wakes the loop goroutine if need be
	}
	l.owned = true
	for {
		batch := l.inj
		l.inj, l.spare = l.spare[:0], nil
		l.mu.Unlock()
		// Closures run in arrival order at the current virtual instant,
		// each followed by whatever it made runnable at that instant (a
		// proc whose future it completed, an op it started) — the
		// simulator's ordering, where a delivery's same-instant consequences
		// run before the next delivery. Running the whole queue first let
		// the request behind a grant give the page away before the granted
		// proc had touched it.
		for i, fn := range batch {
			batch[i] = nil
			fn()
			l.eng.RunUntil(l.eng.Now())
		}
		// Advance the virtual clock to the wall clock and run everything
		// due. The nil-fn anchor pins now == elapsed exactly even when the
		// queue is empty, so relative timers armed by queued work are
		// measured from the true wall instant.
		elapsed := time.Since(l.start)
		l.eng.ScheduleAt(elapsed, nil)
		l.eng.RunUntil(elapsed)
		at, timers := l.eng.NextEventAt()
		l.mu.Lock()
		l.spare = batch[:0]
		if untilEmpty && len(l.inj) > 0 {
			continue
		}
		l.owned = false
		l.left.Signal()
		if timers {
			return min(maxIdleWait, max(0, at-time.Since(l.start))), true
		}
		return maxIdleWait, len(l.inj) > 0
	}
}

func (l *Loop) run(ctx context.Context) {
	defer close(l.done)
	timer := time.NewTimer(maxIdleWait)
	defer timer.Stop()
	for {
		// Run what is queued and due, then sleep until the next timer is
		// due, work arrives, or the context ends.
		wait, _ := l.turn(true)
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-ctx.Done():
			return
		case <-l.wake:
		case <-timer.C:
		}
	}
}
