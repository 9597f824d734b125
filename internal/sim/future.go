package sim

// FutureOf is a one-shot completion carrying a typed value. Procs block on
// it with Wait; event-driven code completes it with Set. A future may be
// completed only once; completing it twice panics, because in a protocol
// simulation a double completion is always a protocol bug worth crashing on.
//
// The single-waiter case (by far the most common) is stored inline, so
// waiting on a future does not allocate; waking a waiter goes through the
// engine's proc fast path and does not allocate either.
type FutureOf[T any] struct {
	eng   *Engine
	done  bool
	value T

	w0      *Proc   // first waiter, inlined
	waiters []*Proc // overflow beyond the first
}

// Future is the untyped future used by protocol code that carries no value
// or a dynamically-typed one. It is an alias, not a distinct type: the
// typed and untyped APIs are the same implementation.
type Future = FutureOf[any]

// NewFuture returns an incomplete untyped future bound to the engine.
func NewFuture(e *Engine) *Future {
	return &Future{eng: e}
}

// NewFutureOf returns an incomplete typed future bound to the engine. Using
// a concrete T avoids boxing the value in an interface on Set/Wait.
func NewFutureOf[T any](e *Engine) *FutureOf[T] {
	return &FutureOf[T]{eng: e}
}

// Reinit returns a future to the incomplete state, binding it to e — the
// hook that lets callers embed futures in pooled structures and reuse the
// allocation. It panics if a waiter is still attached: a waiter holds the
// future's identity across events, and rebinding under it would hand a
// stale completion to the next user. (A completed future has no waiters
// left — Set clears them as it wakes them.)
func (f *FutureOf[T]) Reinit(e *Engine) {
	if f.w0 != nil || len(f.waiters) != 0 {
		panic("sim: Reinit of a future with waiters attached")
	}
	var zero T
	f.eng = e
	f.done = false
	f.value = zero
}

// Done reports whether the future has been completed.
func (f *FutureOf[T]) Done() bool { return f.done }

// Set completes the future, waking all waiting procs in arrival order.
func (f *FutureOf[T]) Set(v T) {
	if f.done {
		panic("sim: Future completed twice")
	}
	f.done = true
	f.value = v
	if p := f.w0; p != nil {
		f.w0 = nil
		f.eng.wake(p)
	}
	for _, p := range f.waiters {
		f.eng.wake(p)
	}
	f.waiters = nil
}

// Wait blocks the proc until the future is complete and returns its value.
// If already complete it returns immediately without yielding.
func (f *FutureOf[T]) Wait(p *Proc) T {
	if !f.done {
		if f.w0 == nil && len(f.waiters) == 0 {
			f.w0 = p
		} else {
			f.waiters = append(f.waiters, p)
		}
		p.park()
	}
	return f.value
}
