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
	s.busyUntil = start + cost
	s.eng.ScheduleRunAt(s.busyUntil, r)
	return s.busyUntil
}

// BusyUntil returns the time at which all currently queued work finishes.
func (s *Server) BusyUntil() Time { return s.busyUntil }

// Idle reports whether the server has no queued or in-progress work.
func (s *Server) Idle() bool { return s.busyUntil <= s.eng.Now() }

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }
