package asvm

import "fmt"

// TraceBuf is a bounded per-node ring buffer of protocol trace lines:
// ownership grants, transfers and fresh grants record one line each. It
// replaces the old process-wide stdout tracing, so parallel experiment
// cells cannot interleave output, and a schedule explorer can attach each
// node's recent history to a failing run. Recording is off by default (one
// bool check per trace site) and turns on when a checker calls Enable.
type TraceBuf struct {
	lines []string
	next  int // overwrite cursor, valid once the buffer is full
	total uint64
	on    bool
}

// traceBufCap bounds each node's retained history. Failing schedules are
// short (bounded scenarios, shrunk reproducers), so the tail is all that
// matters.
const traceBufCap = 64

// Enable turns on recording.
func (t *TraceBuf) Enable() { t.on = true }

// Enabled reports whether trace lines are being recorded.
func (t *TraceBuf) Enabled() bool { return t.on }

// Addf records one formatted line, overwriting the oldest once full.
func (t *TraceBuf) Addf(format string, args ...interface{}) {
	if !t.on {
		return
	}
	line := fmt.Sprintf(format, args...)
	t.total++
	if len(t.lines) < traceBufCap {
		t.lines = append(t.lines, line)
		return
	}
	t.lines[t.next] = line
	t.next = (t.next + 1) % traceBufCap
}

// Total returns how many lines have been recorded over the buffer's
// lifetime (including ones already overwritten).
func (t *TraceBuf) Total() uint64 { return t.total }

// Lines returns the retained lines, oldest first, as a fresh slice.
func (t *TraceBuf) Lines() []string {
	if len(t.lines) < traceBufCap {
		return append([]string(nil), t.lines...)
	}
	out := make([]string, 0, traceBufCap)
	out = append(out, t.lines[t.next:]...)
	out = append(out, t.lines[:t.next]...)
	return out
}

// trace records one line, stamped with virtual time, into the owning
// node's buffer. Every call site tests in.nd.Trace.on first: the variadic
// arguments are boxed at the call, so an unguarded site would allocate on
// every protocol step even with tracing off.
func (in *Instance) trace(format string, args ...interface{}) {
	in.nd.Trace.Addf("@%d "+format, append([]interface{}{int64(in.nd.Eng.Now())}, args...)...)
}
