package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, as written to the trace file.
// Parent 0 means a root span. Times are nanoseconds since the trace began.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Layer  string           `json:"layer"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer records spans in memory; nothing is written until flush. A nil
// *tracer records nothing, so workloads run the same code traced or not.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, name, layer string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span, attaching the counts measured across it.
func (t *tracer) end(id int, counts map[string]int64) time.Duration {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Counts = now, counts
	return time.Duration(s.End - s.Start)
}

// add records a span whose ends the caller timed itself (per-op spans,
// where the clock reads must not include taking the tracer's lock).
func (t *tracer) add(parent int, name, layer string, start, end time.Time, counts map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Counts: counts})
}

// flush writes the spans as JSON lines.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateSpans checks what a reader of the file relies on: ids are
// unique, every span ended, and every parent exists and encloses its child.
func validateSpans(spans []span) error {
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		s := &spans[i]
		if byID[s.ID] != nil {
			return fmt.Errorf("trace: span id %d used twice", s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s) never ended", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p := byID[s.Parent]
		if p == nil {
			return fmt.Errorf("trace: span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("trace: span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// selfTimeByLayer sums, per layer, each span's duration minus the time
// its direct children cover. Children of one parent do not overlap in
// these traces (one thread of control per parent), so the cover is a sum.
func selfTimeByLayer(spans []span) map[string]time.Duration {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}
