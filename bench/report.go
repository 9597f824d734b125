package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricValue is one reported figure. A nil Value prints as null: a probe
// that could not set up, with the reason in Why.
type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"-"` // samples behind the figure, 0 when not a sample statistic
	Note  string   `json:"-"`
	Why   string   `json:"-"`
}

// metrics is a named set of figures in insertion order.
type metrics struct {
	order []string
	byKey map[string]metricValue
}

func newMetrics() *metrics { return &metrics{byKey: map[string]metricValue{}} }

// put records one figure; the unit comes from the catalogue.
func (m *metrics) put(name string, mv metricValue) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric not in the catalogue: " + name)
	}
	if _, dup := m.byKey[name]; dup {
		panic("bench: metric reported twice: " + name)
	}
	mv.Unit = unit
	m.order = append(m.order, name)
	m.byKey[name] = mv
}

func (m *metrics) set(name string, v float64) { m.setN(name, v, 0, "") }

// setN records a figure with the number of samples behind it.
func (m *metrics) setN(name string, v float64, n int, note string) {
	m.put(name, metricValue{Value: &v, N: n, Note: note})
}

// null records a probe that could not produce a figure.
func (m *metrics) null(name, why string) { m.put(name, metricValue{Why: why}) }

func (m *metrics) get(name string) (float64, bool) {
	mv, ok := m.byKey[name]
	if !ok || mv.Value == nil {
		return 0, false
	}
	return *mv.Value, true
}

// merge copies every figure of o into m.
func (m *metrics) merge(o *metrics) {
	for _, name := range o.order {
		m.put(name, o.byKey[name])
	}
}

// print writes one line per metric: name, value, unit, sample count, note.
func (m *metrics) print(w io.Writer) {
	for _, name := range m.order {
		mv := m.byKey[name]
		val := "null"
		if mv.Value != nil {
			val = fmt.Sprintf("%.6g", *mv.Value)
		}
		line := fmt.Sprintf("  %-40s %14s %-6s", name, val, mv.Unit)
		if mv.N > 0 {
			line += fmt.Sprintf(" n=%d", mv.N)
		}
		if mv.Note != "" {
			line += " (" + mv.Note + ")"
		}
		if mv.Why != "" {
			line += " [" + mv.Why + "]"
		}
		fmt.Fprintln(w, line)
	}
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish checks that m holds exactly the names of defs and renders the
// driver's result line.
func finish(m *metrics, defs []metricDef, chk *checker) ([]byte, error) {
	var problems []string
	want := map[string]bool{}
	for _, d := range defs {
		want[d.Name] = true
		if _, ok := m.byKey[d.Name]; !ok {
			problems = append(problems, "missing: "+d.Name)
		}
	}
	for name := range m.byKey {
		if !want[name] {
			problems = append(problems, "unexpected: "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return nil, fmt.Errorf("bench: metrics do not match the catalogue: %v", problems)
	}
	return json.Marshal(result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   m.byKey,
	})
}

// checker counts correctness checks: every checked read, pass, rep and
// gate is one attempt, every violation one failure.
type checker struct {
	attempted, failed int
	msgs              []string // first few failures, for the report
}

func (c *checker) check(ok bool, format string, args ...interface{}) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < 10 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// merge adds the checks another goroutine counted on its own.
func (c *checker) merge(o checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, m := range o.msgs {
		if len(c.msgs) < 10 {
			c.msgs = append(c.msgs, m)
		}
	}
}

func (c *checker) print(w io.Writer) {
	fmt.Fprintf(w, "  checks: %d attempted, %d failed\n", c.attempted, c.failed)
	for _, m := range c.msgs {
		fmt.Fprintln(w, "  FAIL:", m)
	}
}
