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
// touches engine state — events, procs, protocol handlers, injected
// closures — executes on the loop goroutine, mutually exclusively. The
// rest of the process only ever calls Inject/Call, so the protocol core
// remains as single-threaded (and race-free) live as it is simulated.
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

	mu  sync.Mutex
	inj []func()

	wake   chan struct{}
	done   chan struct{}
	cancel context.CancelFunc

	startOnce sync.Once
	stopOnce  sync.Once
}

// NewLoop wraps eng, which must not be driven by anyone else once the loop
// starts.
func NewLoop(eng *sim.Engine) *Loop {
	return &Loop{
		eng:  eng,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
}

// Engine returns the wrapped engine. Callers outside the loop goroutine
// must not touch it directly — go through Inject or Call.
func (l *Loop) Engine() *sim.Engine { return l.eng }

// Start launches the loop goroutine. The loop runs until ctx is cancelled
// or Stop is called. Virtual time zero is the moment Start is called.
func (l *Loop) Start(ctx context.Context) {
	l.startOnce.Do(func() {
		ctx, l.cancel = context.WithCancel(ctx)
		l.start = time.Now()
		go l.run(ctx)
	})
}

// Stop cancels the loop and waits for the loop goroutine to exit.
// Injections queued after Stop are never executed.
func (l *Loop) Stop() {
	l.stopOnce.Do(func() {
		if l.cancel != nil {
			l.cancel()
		}
	})
	if l.cancel != nil {
		<-l.done
	}
}

// Inject queues fn to run on the loop goroutine at the current virtual
// instant, after events already due. It is safe from any goroutine and
// never blocks; this is how socket readers deliver messages and control
// servers start operations. Injections are executed in arrival order, and
// what one makes runnable at that instant runs before the next is taken.
func (l *Loop) Inject(fn func()) {
	l.mu.Lock()
	l.inj = append(l.inj, fn)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Call runs fn on the loop goroutine and waits for it to finish — the
// synchronous flavour of Inject, for reading engine or protocol state
// from outside. Returns false (without running fn) if the loop has
// stopped.
func (l *Loop) Call(fn func()) bool {
	ran := make(chan struct{})
	l.Inject(func() {
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

// Elapsed returns the wall time since the loop started — the wall-clock
// reading of the engine's virtual "now".
func (l *Loop) Elapsed() time.Duration { return time.Since(l.start) }

// maxIdleWait bounds how long the loop sleeps with no queued events: a
// periodic wake costs nothing and guards against a missed signal ever
// stalling delivery.
const maxIdleWait = 250 * time.Millisecond

func (l *Loop) run(ctx context.Context) {
	defer close(l.done)
	timer := time.NewTimer(maxIdleWait)
	defer timer.Stop()
	var fns []func()
	for {
		// Injections run in arrival order at the current virtual instant,
		// each followed by whatever it made runnable at that instant (a
		// proc whose future it completed, an op it started) — the
		// simulator's ordering, where a delivery's same-instant consequences
		// run before the next delivery. Running the whole queue first let
		// the request behind a grant give the page away before the granted
		// proc had touched it.
		l.mu.Lock()
		fns, l.inj = l.inj, fns[:0]
		l.mu.Unlock()
		for i, fn := range fns {
			fns[i] = nil
			fn()
			l.eng.RunUntil(l.eng.Now())
		}

		// Advance the virtual clock to the wall clock and run everything
		// due. The nil-fn anchor pins now == elapsed exactly even when the
		// queue is empty, so relative timers armed by injected work are
		// measured from the true wall instant.
		elapsed := time.Since(l.start)
		l.eng.ScheduleAt(elapsed, nil)
		l.eng.RunUntil(elapsed)

		// Sleep until the next timer is due, an injection arrives, or the
		// context ends.
		wait := maxIdleWait
		if at, ok := l.eng.NextEventAt(); ok {
			if w := at - time.Since(l.start); w < wait {
				wait = w
			}
			if wait < 0 {
				wait = 0
			}
		}
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
