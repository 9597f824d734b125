package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"asvm/internal/dsm"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// The mesh workloads run four dsm.Nodes in this process over real TCP
// loopback sockets and drive them closed-loop straight at
// Node.Read/Write/Lock/Unlock, with no drain between ops. In-process is
// forced by the two cores of the box: four daemons plus a driver would
// measure the scheduler. The -extras cross-check against real asvmd
// processes keeps the choice honest.

const (
	meshNodes = 4
	meshPages = 16
	meshSlots = 8                     // 8-byte slots used per page
	meshKeys  = meshPages * meshSlots // 128
	batchOps  = 10_000                // ops per wall_s batch
	seedSalt  = 0x9E3779B97F4A7C15    // spreads per-client streams over the RNG space
)

// keyAddr stripes key k over the region: adjacent keys sit on different
// pages, so every client's working set spans every page.
func keyAddr(k int) vm.Addr {
	return vm.Addr((k%meshPages)*vm.PageSize + (k/meshPages)*8)
}

// reserveAddrs reserves n localhost ports by binding and releasing them,
// as examples/netdemo does. The race against another process taking one
// in between is what openMesh retries for.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// meshRig is an open, warmed mesh.
type meshRig struct {
	nodes []*dsm.Node
	open  time.Duration // the four dsm.Open calls
}

func (r *meshRig) close() {
	for _, n := range r.nodes {
		n.Close()
	}
}

// openMesh brings a warmed mesh up, retrying up to three times when a
// reserved port was taken before the node could bind it.
func openMesh() (*meshRig, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		r, err := tryOpenMesh()
		if err != nil {
			lastErr = err
			continue
		}
		if err := r.warm(); err != nil {
			r.close()
			return nil, err
		}
		return r, nil
	}
	return nil, fmt.Errorf("mesh bring-up failed three times: %w", lastErr)
}

func tryOpenMesh() (*meshRig, error) {
	addrs, err := reserveAddrs(meshNodes)
	if err != nil {
		return nil, err
	}
	cfg := &dsm.MeshConfig{Region: "bench", Pages: meshPages, Home: 0}
	for i, a := range addrs {
		cfg.Nodes = append(cfg.Nodes, dsm.NodeSpec{ID: i, Xport: a})
	}
	r := &meshRig{}
	t0 := time.Now()
	for i := range addrs {
		n, err := dsm.Open(cfg, i)
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes = append(r.nodes, n)
	}
	r.open = time.Since(t0)
	return r, nil
}

// warm makes every node own a page that every other node then reads, which
// dials all twelve directed pairs (grants travel owner → reader), and then
// has every node touch every page. It writes only zeros, so the region
// still reads as the generators' models expect.
func (r *meshRig) warm() error {
	for j, owner := range r.nodes {
		addr := keyAddr(j)
		if _, err := owner.Write(addr, 0); err != nil {
			return fmt.Errorf("warm-up: node %d write: %w", j, err)
		}
		for i, n := range r.nodes {
			if i == j {
				continue
			}
			if _, _, err := n.Read(addr); err != nil {
				return fmt.Errorf("warm-up: node %d read: %w", i, err)
			}
		}
	}
	for p := 0; p < meshPages; p++ {
		for i, n := range r.nodes {
			if _, _, err := n.Read(keyAddr(p)); err != nil {
				return fmt.Errorf("warm-up: node %d page %d: %w", i, p, err)
			}
		}
	}
	for i, n := range r.nodes {
		if d := n.TransportStats().Dials; d != meshNodes-1 {
			return fmt.Errorf("warm-up: node %d dialed %d peers, want %d", i, d, meshNodes-1)
		}
	}
	return nil
}

// setupMesh brings a warmed mesh up `times` times and keeps the last one,
// so setup_s is a median.
func setupMesh(times int) (*meshRig, []float64, error) {
	var setup []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		r, err := openMesh()
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if i == times-1 {
			return r, setup, nil
		}
		r.close()
	}
}

// meshTotals are the protocol and transport counters summed over the four
// nodes. Counter names are looked up in the merged map: one that a later
// change renames reads as zero here, never as a build error.
type meshTotals struct {
	ctr                            map[string]int64
	frames, bytes                  uint64
	decodeErrs, dialFails, bounces uint64
}

func (r *meshRig) totals() meshTotals {
	t := meshTotals{ctr: map[string]int64{}}
	for _, n := range r.nodes {
		for k, v := range n.Counters() {
			t.ctr[k] += v
		}
		st := n.TransportStats()
		t.frames += st.FramesSent
		t.bytes += st.BytesSent
		t.decodeErrs += st.DecodeErrors
		t.dialFails += st.DialFailures
		t.bounces += st.BouncesRecv
	}
	return t
}

// delta returns after − before for the named counters plus the transport.
func (after meshTotals) delta(before meshTotals) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after.ctr {
		if dv := v - before.ctr[k]; dv != 0 {
			d[k] = dv
		}
	}
	if f := int64(after.frames - before.frames); f != 0 {
		d["frames_sent"] = f
		d["bytes_sent"] = int64(after.bytes - before.bytes)
	}
	return d
}

// checkClean applies the transport and protocol gates: nothing may have
// failed to decode, dial, or been bounced or nacked.
func (t meshTotals) checkClean(w string, chk *checker) {
	chk.check(t.decodeErrs == 0, "%s: %d frames failed to decode", w, t.decodeErrs)
	chk.check(t.dialFails == 0, "%s: %d dials failed", w, t.dialFails)
	chk.check(t.bounces == 0, "%s: %d frames bounced", w, t.bounces)
	chk.check(t.ctr["nacks"] == 0, "%s: %d nacks", w, t.ctr["nacks"])
}

// finalSweep has every node read every key and checks it against model.
func (r *meshRig) finalSweep(w string, model *[meshKeys]uint64, chk *checker) {
	for i, n := range r.nodes {
		for k := 0; k < meshKeys; k++ {
			v, _, err := n.Read(keyAddr(k))
			chk.check(err == nil && v == model[k], "%s: final sweep node %d key %d read %d (err %v), model says %d", w, i, k, v, err, model[k])
		}
	}
}

// ---- mesh-kv ----

type kvKind uint8

const (
	kvGet kvKind = iota
	kvPut
	kvLockPut
)

var kvKindNames = [...]string{"get", "put", "lockput"}

// kvOp is one generated operation. For a get, Val is what the store must
// hold; for the puts, what to store.
type kvOp struct {
	Node int
	Kind kvKind
	Key  int
	Val  uint64
}

// kvGen is the seeded mesh-kv stream: 50 % checked gets, 40 % puts, 10 %
// range-locked puts over 128 keys, issuing node round-robin.
type kvGen struct {
	rng   *sim.RNG
	model [meshKeys]uint64
	n     int
}

func newKVGen(seed uint64) *kvGen { return &kvGen{rng: sim.NewRNG(seed ^ seedSalt)} }

func (g *kvGen) next() kvOp {
	op := kvOp{Node: g.n % meshNodes, Key: g.rng.Intn(meshKeys)}
	g.n++
	switch x := g.rng.Intn(10); {
	case x < 5:
		op.Kind, op.Val = kvGet, g.model[op.Key]
	case x < 9:
		op.Kind = kvPut
	default:
		op.Kind = kvLockPut
	}
	if op.Kind != kvGet {
		op.Val = uint64(1 + g.rng.Intn(1_000_000))
		g.model[op.Key] = op.Val
	}
	return op
}

// memOps is one mesh member as a client sees it: *dsm.Node in this
// process, *dsm.Client in front of an asvmd process.
type memOps interface {
	Read(addr vm.Addr) (uint64, time.Duration, error)
	Write(addr vm.Addr, v uint64) (time.Duration, error)
	Lock(lo, hi int64) (time.Duration, error)
	Unlock(lo, hi int64) (time.Duration, error)
}

// doKV executes one op on its node and returns the value read (a get) or
// written (the puts). A locked put is one op of three calls.
func doKV(n memOps, op kvOp) (got uint64, err error) {
	addr := keyAddr(op.Key)
	switch op.Kind {
	case kvGet:
		got, _, err = n.Read(addr)
		return got, err
	case kvPut:
		_, err = n.Write(addr, op.Val)
		return op.Val, err
	default:
		pg := int64(op.Key % meshPages)
		if _, err = n.Lock(pg, pg+1); err != nil {
			return 0, err
		}
		_, err = n.Write(addr, op.Val)
		if _, uerr := n.Unlock(pg, pg+1); err == nil {
			err = uerr
		}
		return op.Val, err
	}
}

// stream is what one closed-loop client measured.
type stream struct {
	lat   []float64 // per-op wall latency, µs
	batch []float64 // wall seconds of each full batchOps-op batch
	wall  time.Duration
}

// stopRule ends a stream after a number of ops, or a time, whichever is
// set: timed runs measure for --seconds, traced slices run a fixed count so
// their counters repeat exactly. It also says how many ops make a batch.
type stopRule struct {
	ops     int
	seconds float64
	batch   int // ops per timed batch
}

func (s stopRule) done(ops int, elapsed time.Duration) bool {
	if s.ops > 0 {
		return ops >= s.ops
	}
	return elapsed.Seconds() >= s.seconds
}

// capacity sizes a stream's latency slice so that it does not grow while
// the stream is timed: the op count when that is fixed, else room for
// 50,000 ops a second.
func (s stopRule) capacity() int {
	if s.ops > 0 {
		return s.ops
	}
	return int(s.seconds * 50_000)
}

// kvObserver, when non-nil, is told about every op of a traced stream.
type kvObserver func(op kvOp, start, end time.Time)

// runKV drives the mesh-kv stream from one client.
func (r *meshRig) runKV(g *kvGen, stop stopRule, chk *checker, observe kvObserver) stream {
	s := stream{lat: make([]float64, 0, stop.capacity())}
	t0 := time.Now()
	batch0, end := t0, t0
	for !stop.done(len(s.lat), end.Sub(t0)) {
		op := g.next()
		start := time.Now()
		got, err := doKV(r.nodes[op.Node], op)
		end = time.Now()
		chk.check(err == nil && got == op.Val, "mesh-kv: op %d %s key %d on node %d: got %d (err %v), model says %d",
			g.n, kvKindNames[op.Kind], op.Key, op.Node, got, err, op.Val)
		s.lat = append(s.lat, us(end.Sub(start)))
		if len(s.lat)%stop.batch == 0 {
			s.batch = append(s.batch, end.Sub(batch0).Seconds())
			batch0 = end
		}
		if observe != nil {
			observe(op, start, end)
		}
	}
	s.wall = end.Sub(t0)
	return s
}

// ---- mesh-contend ----

// contendOp is one generated operation of a mesh-contend client.
type contendOp struct {
	Node  int
	Write bool
	Key   int
	Val   uint64 // value to write, or value the read must return
}

// contendGen is client c's seeded stream: 50 % reads, 50 % writes over the
// client's own slots (c*4 .. c*4+3 of every page), alternating between the
// client's two nodes c and c+2. Both clients' slots share all 16 pages, so
// the pages are falsely shared while every read stays exactly checkable:
// only this client ever writes the slots it reads.
type contendGen struct {
	client int
	rng    *sim.RNG
	model  *[meshKeys]uint64 // shared array, disjoint keys per client
	n      int
}

func newContendGen(seed uint64, client int, model *[meshKeys]uint64) *contendGen {
	return &contendGen{client: client, rng: sim.NewRNG(seed ^ uint64(client+1)*seedSalt), model: model}
}

func (g *contendGen) next() contendOp {
	page, slot := g.rng.Intn(meshPages), g.client*(meshSlots/2)+g.rng.Intn(meshSlots/2)
	op := contendOp{Node: g.client + 2*(g.n%2), Key: slot*meshPages + page, Write: g.rng.Intn(2) == 1}
	g.n++
	if op.Write {
		op.Val = uint64(1 + g.rng.Intn(1_000_000))
		g.model[op.Key] = op.Val
	} else {
		op.Val = g.model[op.Key]
	}
	return op
}

// runContend drives both clients until the stop rule ends the first of
// them; the other stops at its next op. Traced, every op is a span under
// its client's root span.
func (r *meshRig) runContend(seed uint64, model *[meshKeys]uint64, stop stopRule, chk *checker, tr *tracer) [2]stream {
	var out [2]stream
	var checks [2]checker
	var halt atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := newContendGen(seed, c, model)
			s := stream{lat: make([]float64, 0, stop.capacity())}
			root := tr.begin(0, fmt.Sprintf("client%d", c), "bench")
			batch0, end := t0, t0
			for !halt.Load() && !stop.done(len(s.lat), end.Sub(t0)) {
				op := g.next()
				n, addr := r.nodes[op.Node], keyAddr(op.Key)
				got, err := op.Val, error(nil)
				start := time.Now()
				if op.Write {
					_, err = n.Write(addr, op.Val)
				} else {
					got, _, err = n.Read(addr)
				}
				end = time.Now()
				checks[c].check(err == nil && got == op.Val, "mesh-contend: client %d op %d key %d on node %d: got %d (err %v), model says %d",
					c, g.n, op.Key, op.Node, got, err, op.Val)
				s.lat = append(s.lat, us(end.Sub(start)))
				if len(s.lat)%stop.batch == 0 {
					s.batch = append(s.batch, end.Sub(batch0).Seconds())
					batch0 = end
				}
				if tr != nil {
					name := "read"
					if op.Write {
						name = "write"
					}
					tr.add(root, name, "dsm", start, end, nil)
				}
			}
			halt.Store(true)
			s.wall = end.Sub(t0)
			tr.end(root, map[string]int64{"ops": int64(len(s.lat))})
			out[c] = s
		}(c)
	}
	wg.Wait()
	chk.merge(checks[0])
	chk.merge(checks[1])
	return out
}
