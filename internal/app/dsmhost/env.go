// Package dsmhost implements the portable application layer (app.Host,
// app.Env) over a real mesh of dsm nodes: OS processes (or in-process
// loopback nodes) running the identical ASVM protocol code on the wall
// clock, with TCP or net.Pipe for a wire. Workloads written against
// app.Host run here unchanged from the simulator; because op streams
// execute one at a time with the mesh drained between steps, the
// protocol's decisions are deterministic and the counters must match the
// simulated twin exactly.
package dsmhost

import (
	"fmt"
	"time"

	"asvm/internal/app"
	"asvm/internal/dsm"
	"asvm/internal/vm"
)

// Conn is one mesh member as the host layer needs it: the shared-region
// operations with their daemon-measured latencies, the merged protocol
// counters, and the drain poll. dsm.Client implements it over the
// control plane (FromClients); dsm.Node is adapted in-process
// (FromNodes).
type Conn interface {
	Read(addr vm.Addr) (uint64, time.Duration, error)
	Write(addr vm.Addr, v uint64) (time.Duration, error)
	Lock(lo, hi int64) (time.Duration, error)
	Unlock(lo, hi int64) (time.Duration, error)
	Counters() (map[string]int64, error)
	QuietFrames() (quiet bool, frames uint64, err error)
}

// Env executes portable op streams on the mesh. Latencies are the
// daemon-measured wall latencies of the operations themselves (injection
// overhead included, control-plane round trip excluded).
type Env struct {
	conns []Conn

	// DrainTimeout bounds each drain; on expiry the error is a
	// dsm.ErrDrainTimeout.
	DrainTimeout time.Duration

	start time.Time
}

// The drains' stability windows: consecutive polls with every node quiet
// and total frame traffic unchanged, after each step and at the end.
const (
	stepRounds  = 3
	finalRounds = 5
)

// New builds an Env over explicit conns (mostly for tests; use
// FromClients or FromNodes).
func New(conns []Conn) *Env {
	return &Env{conns: conns, DrainTimeout: 30 * time.Second, start: time.Now()}
}

// FromClients builds an Env over control-plane clients, one per mesh
// node in node-ID order — the shape the netdemo orchestrator has after
// dialing its daemons.
func FromClients(clients []*dsm.Client) *Env {
	conns := make([]Conn, len(clients))
	for i, c := range clients {
		conns[i] = c
	}
	return New(conns)
}

// nodeConn adapts an in-process dsm.Node (whose Counters cannot fail) to
// the Conn seam.
type nodeConn struct{ *dsm.Node }

func (c nodeConn) Counters() (map[string]int64, error) { return c.Node.Counters(), nil }

// FromNodes builds an Env over in-process nodes, one per mesh node in
// node-ID order — the shape the loopback tests have.
func FromNodes(nodes []*dsm.Node) *Env {
	conns := make([]Conn, len(nodes))
	for i, n := range nodes {
		conns[i] = nodeConn{n}
	}
	return New(conns)
}

// Step implements app.Env: run fn against the node's host view, then
// drain the mesh so the next step starts from protocol quiescence. The
// latency is the sum of the daemon-measured latencies of the operations
// fn performed.
func (e *Env) Step(node int, label string, fn func(h app.Host) error) (time.Duration, error) {
	if node < 0 || node >= len(e.conns) {
		return 0, fmt.Errorf("dsmhost: no node %d in a %d-node mesh", node, len(e.conns))
	}
	var lat time.Duration
	if err := fn(host{env: e, node: node, lat: &lat}); err != nil {
		return lat, err
	}
	if err := e.drain(stepRounds); err != nil {
		return lat, fmt.Errorf("dsmhost: drain after %s: %w", label, err)
	}
	return lat, nil
}

// Drain implements app.Env with the stricter final stability window.
func (e *Env) Drain() error { return e.drain(finalRounds) }

func (e *Env) drain(rounds int) error {
	pollers := make([]dsm.QuietPoller, len(e.conns))
	for i, c := range e.conns {
		pollers[i] = c
	}
	return dsm.DrainPollers(pollers, rounds, e.DrainTimeout)
}

// Counters implements app.Env: every node's merged protocol counters,
// summed across the mesh.
func (e *Env) Counters() (map[string]int64, error) {
	out := make(map[string]int64)
	for i, c := range e.conns {
		ctrs, err := c.Counters()
		if err != nil {
			return nil, fmt.Errorf("dsmhost: counters from node %d: %w", i, err)
		}
		for k, v := range ctrs {
			out[k] += v
		}
	}
	return out, nil
}

// host is the app.Host view of one mesh node. The mesh provides exactly
// one shared region (object 0); tasks, forks and barriers are simulator
// amenities, so the unsupported subset reports app.ErrUnsupported
// rather than guessing.
type host struct {
	env  *Env
	node int
	lat  *time.Duration // daemon-measured latency accumulator for the step
}

func (h host) On(node int) app.Host { return host{env: h.env, node: node, lat: h.lat} }

func (h host) conn() Conn { return h.env.conns[h.node] }

func (h host) Open(obj int) error {
	if obj != 0 {
		return app.ErrUnsupported
	}
	return nil
}

func (h host) Close(obj int) error {
	if obj != 0 {
		return app.ErrUnsupported
	}
	return nil
}

func (h host) Read(obj int, off int64) (uint64, error) {
	if obj != 0 {
		return 0, app.ErrUnsupported
	}
	v, lat, err := h.conn().Read(vm.Addr(off))
	*h.lat += lat
	return v, err
}

func (h host) Write(obj int, off int64, val uint64) error {
	if obj != 0 {
		return app.ErrUnsupported
	}
	lat, err := h.conn().Write(vm.Addr(off), val)
	*h.lat += lat
	return err
}

func (h host) Lock(obj int, lo, hi int64) error {
	if obj != 0 {
		return app.ErrUnsupported
	}
	lat, err := h.conn().Lock(lo, hi)
	*h.lat += lat
	return err
}

func (h host) Unlock(obj int, lo, hi int64) error {
	if obj != 0 {
		return app.ErrUnsupported
	}
	lat, err := h.conn().Unlock(lo, hi)
	*h.lat += lat
	return err
}

func (h host) Fork(node int, name string) (app.Host, error) { return nil, app.ErrUnsupported }

func (h host) Barrier(id int) error { return app.ErrUnsupported }

func (h host) Now() time.Duration    { return time.Since(h.env.start) }
func (h host) Sleep(d time.Duration) { time.Sleep(d) }
