package sim

import "time"

// Server models a serial resource: a device that handles one request at a
// time in FIFO order (a Paragon message processor, a NIC serializing bytes
// onto a link, a disk arm). Submitting work when the server is busy queues
// it; queueing delay is how contention emerges in the simulation.
type Server struct {
	eng  *Engine
	name string

	busyUntil Time

	// Accounting.
	Jobs     uint64        // total jobs accepted
	BusyTime time.Duration // total service time accumulated
	maxQueue time.Duration // largest backlog observed (in service time)
}

// NewServer returns an idle server.
func NewServer(e *Engine, name string) *Server {
	return &Server{eng: e, name: name}
}

// DoRun enqueues a job with the given service time; r.Run runs when the job
// completes (a closure goes in as a Func). A nil r still anchors the busy
// period, so RunUntil sees activity up to it. Returns the completion time.
func (s *Server) DoRun(cost time.Duration, r Runnable) Time {
	if cost < 0 {
		cost = 0
	}
	now := s.eng.Now()
	start := s.busyUntil
	if start < now {
		start = now
	}
	if backlog := start - now; backlog > s.maxQueue {
		s.maxQueue = backlog
	}
	s.busyUntil = start + cost
	s.Jobs++
	s.BusyTime += cost
	s.eng.ScheduleRunAt(s.busyUntil, r)
	return s.busyUntil
}

// BusyUntil returns the time at which all currently queued work finishes.
func (s *Server) BusyUntil() Time { return s.busyUntil }

// Idle reports whether the server has no queued or in-progress work.
func (s *Server) Idle() bool { return s.busyUntil <= s.eng.Now() }

// MaxBacklog returns the largest queueing delay (in service time ahead of a
// new arrival) observed so far.
func (s *Server) MaxBacklog() time.Duration { return s.maxQueue }

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Utilization returns BusyTime / elapsed as a fraction (0 when no time has
// passed).
func (s *Server) Utilization() float64 {
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	return s.BusyTime.Seconds() / now.Seconds()
}
