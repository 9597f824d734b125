package simhost

import (
	"fmt"
	"time"

	"asvm/internal/app"
	"asvm/internal/machine"
	"asvm/internal/sim"
)

// Env executes portable op streams on the simulator: one spawned proc per
// op, the engine drained between ops — the schedule under which the
// protocol's decisions are deterministic, making the simulated run the
// exact twin of a drained real-mesh run. Calibration is the standard
// machine.DefaultParams (modelled 1996 Paragon costs) with data tracked,
// so read checks verify real contents.
type Env struct {
	W *World
}

// NewEnv builds an n-node simulated mesh with one shared region of the
// given size mapped on every node — the same world shape the dsm mesh
// provides (its single region, object 0).
func NewEnv(nodes int, pages int64) (*Env, error) {
	p := machine.DefaultParams(nodes)
	p.TrackData = true
	c := machine.New(p)
	w, err := NewWorld(c, []Spec{{Name: "netdemo", Pages: pages}})
	if err != nil {
		return nil, err
	}
	if err := w.Prepare(allNodes(nodes)...); err != nil {
		return nil, err
	}
	return &Env{W: w}, nil
}

// Step runs fn as one proc on the node and drains the engine: the next
// step starts from protocol quiescence. The latency is virtual time.
func (e *Env) Step(node int, label string, fn func(m app.Mem) error) (time.Duration, error) {
	var lat time.Duration
	var opErr error
	e.W.C.Spawn(label, func(pr *sim.Proc) {
		start := pr.Now()
		opErr = fn(host{w: e.W, p: pr, node: node})
		lat = time.Duration(pr.Now() - start)
	})
	e.W.C.Run() // drain: the next op starts from protocol quiescence
	return lat, opErr
}

// Drain implements app.Env; per-step Runs already drain the engine, so
// this only asserts nothing is left pending.
func (e *Env) Drain() error {
	if n := e.W.C.Eng.Pending(); n != 0 {
		return fmt.Errorf("simhost: %d events still pending after drain", n)
	}
	return nil
}

// Counters returns the mesh-wide protocol counters: each node's kernel
// counters (faults, zero fills) merged with its ASVM runtime's (messages,
// invalidations), summed over nodes — the same union the real mesh's
// control plane reports.
func (e *Env) Counters() (map[string]int64, error) {
	out := make(map[string]int64)
	c := e.W.C
	for i := 0; i < c.P.Nodes; i++ {
		c.Kerns[i].Ctr.AddTo(out)
		c.ASVMs[i].Ctr.AddTo(out)
	}
	return out, nil
}
