package sim

// Semaphore is a counting semaphore for procs. It follows the engine's
// determinism rules: wakeups are scheduled events, FIFO among equal times.
type Semaphore struct {
	eng     *Engine
	tokens  int
	waiters []*Proc
}

// NewSemaphore returns a semaphore holding n tokens.
func NewSemaphore(e *Engine, n int) *Semaphore {
	return &Semaphore{eng: e, tokens: n}
}

// Acquire takes one token, blocking the proc until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	if s.tokens > 0 {
		s.tokens--
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// Release returns one token, waking the longest-waiting proc if any.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		p := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.eng.wake(p)
		return
	}
	s.tokens++
}
