package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"asvm/internal/asvm"
	"asvm/internal/dsm"
	"asvm/internal/mesh"
	"asvm/internal/node"
	"asvm/internal/norma"
	"asvm/internal/rt"
	"asvm/internal/sim"
	"asvm/internal/sts"
	"asvm/internal/vm"
	"asvm/internal/xport"
	"asvm/internal/xport/netx"
)

// The layer probes time calls into one layer's public functions with no
// workload around them. Each runs for about `budget` and never fails the
// run: a probe that cannot set up reports null and the reason.

// probe runs fn, which fills m; an error nulls the names fn left unset.
func probe(m *metrics, names []string, fn func() error) {
	err := fn()
	for _, n := range names {
		if _, done := m.byKey[n]; !done {
			why := "probe did not report it"
			if err != nil {
				why = err.Error()
			}
			m.null(n, why)
		}
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ---- sim ----

// probeSim times the bare engine: Schedule+dispatch per event on a
// partially filled queue with jittered delays (the shape of
// sim.BenchmarkScheduleRun), and one proc park/resume step.
func probeSim(m *metrics, budget time.Duration) error {
	e := sim.NewEngine()
	fn := func() {}
	const chunk = 1 << 16
	m0, t0 := mallocs(), time.Now()
	n := 0
	for time.Since(t0) < budget {
		for i := 0; i < chunk; i++ {
			e.Schedule(time.Duration(i%64)*time.Microsecond, fn)
			if i%1024 == 1023 {
				e.Run()
			}
		}
		n += chunk
	}
	el, mal := time.Since(t0), mallocs()-m0
	if e.Executed != uint64(n) {
		return fmt.Errorf("engine executed %d of %d events", e.Executed, n)
	}
	m.setN("sim.schedule_run_ns", float64(el.Nanoseconds())/float64(n), n, "")
	m.setN("sim.allocs_per_event", float64(mal)/float64(n), n, "")

	steps := 0
	e = sim.NewEngine()
	deadline := time.Now().Add(budget)
	body := func(p *sim.Proc) {
		for steps%1024 != 0 || time.Now().Before(deadline) {
			steps++
			p.Sleep(time.Microsecond)
		}
	}
	e.Spawn("a", body)
	e.Spawn("b", body)
	t0 = time.Now()
	e.Run()
	m.setN("sim.proc_switch_ns", float64(time.Since(t0).Nanoseconds())/float64(steps), steps, "two procs alternating 1us sleeps")
	return nil
}

// ---- sts, norma ----

// simTransport is what sts.New and norma.New both return.
type simTransport interface {
	Register(n mesh.NodeID, proto xport.ProtoID, h xport.Handler)
	Send(src, dst mesh.NodeID, proto xport.ProtoID, payloadBytes int, m interface{})
}

// probeMsgPath times a header-only request answered by a page-bearing
// grant on a two-node engine, as sts.BenchmarkMessagePath does.
func probeMsgPath(build func(*sim.Engine, *mesh.Network, []*node.Node) simTransport, protoName string, budget time.Duration) (nsPerRT, allocsPerRT float64, n int) {
	eng := sim.NewEngine()
	net := mesh.New(eng, 2, mesh.DefaultConfig(2))
	tr := build(eng, net, []*node.Node{node.New(eng, 0), node.New(eng, 1)})
	proto := xport.RegisterProto(protoName)
	done := 0
	tr.Register(1, proto, func(src mesh.NodeID, msg interface{}) { tr.Send(1, 0, proto, vm.PageSize, msg) })
	tr.Register(0, proto, func(src mesh.NodeID, msg interface{}) { done++ })
	msg := struct{ pg int }{pg: 7}
	for i := 0; i < 1000; i++ { // fill the transports' free lists
		tr.Send(0, 1, proto, 0, msg)
		eng.Run()
	}
	m0, t0 := mallocs(), time.Now()
	for time.Since(t0) < budget {
		for i := 0; i < 1024; i++ {
			tr.Send(0, 1, proto, 0, msg)
			eng.Run()
		}
		n += 1024
	}
	el, mal := time.Since(t0), mallocs()-m0
	return float64(el.Nanoseconds()) / float64(n), float64(mal) / float64(n), n
}

func probeTransports(m *metrics, budget time.Duration) error {
	ns, allocs, n := probeMsgPath(func(e *sim.Engine, nw *mesh.Network, hw []*node.Node) simTransport {
		return sts.New(e, nw, hw, sts.DefaultCosts())
	}, "bench-sts", budget)
	m.setN("sts.msgpath_ns", ns, n, "request + page grant round trip")
	m.setN("sts.msgpath_allocs", allocs, n, "")
	ns, _, n = probeMsgPath(func(e *sim.Engine, nw *mesh.Network, hw []*node.Node) simTransport {
		return norma.New(e, nw, hw, norma.DefaultCosts())
	}, "bench-norma", budget)
	m.setN("norma.msgpath_ns", ns, n, "request + page grant round trip")
	return nil
}

// ---- asvm wire codec ----

// specimen frames, built to the layout internal/asvm/wire.go documents:
// little-endian, one leading kind byte, obj = i32 node + u64 seq, idx =
// u64, slices as u32 count (^0 for nil) + elements. The message types are
// unexported, so the probe gets its messages by decoding these and times
// re-encoding them; a frame that no longer round-trips means the layout
// moved and the probe reports null.
type wireBuf struct{ b []byte }

func (w *wireBuf) u8(v uint8) *wireBuf   { w.b = append(w.b, v); return w }
func (w *wireBuf) u32(v uint32) *wireBuf { w.b = binary.LittleEndian.AppendUint32(w.b, v); return w }
func (w *wireBuf) u64(v uint64) *wireBuf { w.b = binary.LittleEndian.AppendUint64(w.b, v); return w }
func (w *wireBuf) obj(node uint32, seq uint64) *wireBuf {
	return w.u32(node).u64(seq)
}

func wireSpecimens() map[string][]byte {
	page := make([]byte, vm.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	const nilSlice = ^uint32(0)
	// accessReq: kind 0 | obj | target | idx | want | reqkind | origin |
	// hops | scanning | scannedAll | forHome | scanStart | lastFrom
	access := (&wireBuf{}).u8(0).obj(0, 1_000_001).obj(0, 1_000_001).u64(3).u8(1).u8(0).u32(2).
		u32(1).u8(0).u8(0).u8(0).u32(0).u32(2).b
	// grant: kind 1 | obj | idx | lock | data | hasData | fresh | ownership |
	// readers | version | retry | atPagerCopy | unavailable | from
	grant := (&wireBuf{}).u8(1).obj(0, 1_000_001).u64(3).u8(1).u32(uint32(len(page)))
	grant.b = append(grant.b, page...)
	grantB := grant.u8(1).u8(0).u8(0).u32(nilSlice).u64(7).u8(0).u8(0).u8(0).u32(1).b
	// inval: kind 2 | obj | idx | newOwner | seq | from
	inval := (&wireBuf{}).u8(2).obj(0, 1_000_001).u64(3).u32(2).u64(9).u32(1).b
	// invalAck: kind 3 | obj | idx | seq | from
	ack := (&wireBuf{}).u8(3).obj(0, 1_000_001).u64(3).u64(9).u32(2).b
	return map[string][]byte{"access_req": access, "grant_page": grantB, "inval": inval, "inval_ack": ack}
}

var wireKinds = []string{"access_req", "grant_page", "inval", "inval_ack"}

func probeWire(m *metrics, budget time.Duration) error {
	codec := asvm.WireCodec()
	frames := wireSpecimens()
	for _, kind := range wireKinds {
		frame := frames[kind]
		enc, dec := "asvm.wire_encode_ns."+kind, "asvm.wire_decode_ns."+kind
		msg, err := codec.DecodeMsg(frame)
		if err != nil {
			m.null(enc, "specimen no longer decodes: "+err.Error())
			m.null(dec, "specimen no longer decodes: "+err.Error())
			continue
		}
		if again, err := codec.AppendMsg(nil, msg); err != nil || !bytes.Equal(again, frame) {
			m.null(enc, "specimen does not round-trip: the wire layout moved")
			m.null(dec, "specimen does not round-trip: the wire layout moved")
			continue
		}
		buf := make([]byte, 0, 2*len(frame))
		n, t0 := 0, time.Now()
		for time.Since(t0) < budget/2 {
			for i := 0; i < 256; i++ {
				buf, _ = codec.AppendMsg(buf[:0], msg)
			}
			n += 256
		}
		m.setN(enc, float64(time.Since(t0).Nanoseconds())/float64(n), n, fmt.Sprintf("%d-byte frame", len(frame)))
		n, t0 = 0, time.Now()
		for time.Since(t0) < budget/2 {
			for i := 0; i < 256; i++ {
				msg, _ = codec.DecodeMsg(frame)
			}
			n += 256
		}
		m.setN(dec, float64(time.Since(t0).Nanoseconds())/float64(n), n, "")
	}
	return nil
}

// ---- rt ----

func probeRT(m *metrics, budget time.Duration) error {
	loop := rt.NewLoop(sim.NewEngine())
	loop.Start(context.Background())
	defer loop.Stop()

	n, t0 := 0, time.Now()
	for time.Since(t0) < budget {
		for i := 0; i < 256; i++ {
			if !loop.Call(func() {}) {
				return fmt.Errorf("rt.Loop stopped during the probe")
			}
		}
		n += 256
	}
	m.setN("rt.call_ns", float64(time.Since(t0).Nanoseconds())/float64(n), n, "Loop.Call round trip")

	// Idle inject: the loop is asleep in its select when the closure
	// arrives; the figure is Inject to the closure's first instruction.
	var lat []float64
	ran := make(chan time.Time)
	for t0 = time.Now(); time.Since(t0) < budget; {
		time.Sleep(200 * time.Microsecond) // let the loop go back to sleep
		s := time.Now()
		loop.Inject(func() { ran <- time.Now() })
		lat = append(lat, float64((<-ran).Sub(s).Nanoseconds()))
	}
	m.setN("rt.inject_ns", median(lat), len(lat), "median, loop idle")

	const burst = 200_000
	var count atomic.Int64
	noop := func() { count.Add(1) }
	n, t0 = 0, time.Now()
	for time.Since(t0) < budget {
		for i := 0; i < burst; i++ {
			loop.Inject(noop)
		}
		loop.Call(func() {})
		n += burst
	}
	el := time.Since(t0)
	if int(count.Load()) != n {
		return fmt.Errorf("loop ran %d of %d injected closures", count.Load(), n)
	}
	m.setN("rt.inject_burst_per_sec", float64(n)/el.Seconds(), n, "no-op closures, one producer")
	return nil
}

// ---- netx ----

// echoCodec carries the netx probes' messages: a byte slice, copied on
// decode as the asvm codec copies page data.
type echoCodec struct{}

func (echoCodec) AppendMsg(dst []byte, m interface{}) ([]byte, error) {
	return append(dst, m.([]byte)...), nil
}
func (echoCodec) DecodeMsg(b []byte) (interface{}, error) {
	return append([]byte(nil), b...), nil
}

const echoProtoName = "bench-echo"

var echoProto = func() xport.ProtoID {
	xport.RegisterWireCodec(echoProtoName, echoCodec{})
	return xport.RegisterProto(echoProtoName)
}()

// countingConn counts Write calls on an outbound connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// netxPair is two transports on two loops joined over TCP loopback.
type netxPair struct {
	loops  [2]*rt.Loop
	trs    [2]*netx.Transport
	writes atomic.Int64 // conn.Write calls on node 0's outbound connection
	onMsg  [2]func([]byte)
}

func newNetxPair() (*netxPair, error) {
	addrs, err := reserveAddrs(2)
	if err != nil {
		return nil, err
	}
	p := &netxPair{}
	for i := range p.trs {
		i := i
		p.loops[i] = rt.NewLoop(sim.NewEngine())
		cfg := netx.Config{Self: mesh.NodeID(i), Listen: addrs[i]}
		if i == 0 {
			cfg.Dial = func(addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, 2*time.Second)
				if err != nil {
					return nil, err
				}
				return countingConn{c, &p.writes}, nil
			}
		}
		p.trs[i] = netx.New(p.loops[i], cfg)
		if err := p.trs[i].Start(); err != nil {
			p.close()
			return nil, err
		}
		p.trs[i].Register(mesh.NodeID(i), echoProto, func(src mesh.NodeID, m interface{}) {
			if b, ok := m.([]byte); ok { // a Nack is not: the probe then times out
				p.onMsg[i](b)
			}
		})
	}
	p.trs[0].AddPeer(1, addrs[1])
	p.trs[1].AddPeer(0, addrs[0])
	for _, l := range p.loops {
		l.Start(context.Background())
	}
	return p, nil
}

// handle installs node i's message handler on its loop goroutine, the only
// one that reads it.
func (p *netxPair) handle(i int, fn func([]byte)) {
	p.loops[i].Call(func() { p.onMsg[i] = fn })
}

func (p *netxPair) close() {
	for i := range p.trs {
		if p.loops[i] != nil {
			p.loops[i].Stop()
		}
		if p.trs[i] != nil {
			p.trs[i].Close()
		}
	}
}

// pingPong bounces one payload between the two nodes for `budget` and
// returns the median round trip. The next ping leaves from node 0's
// handler, on its loop goroutine, so no benchmark goroutine wake-up is in
// the figure.
func (p *netxPair) pingPong(payload []byte, budget time.Duration) (rttUS float64, n int, err error) {
	done := make(chan struct{})
	var rtt []float64
	var start, last time.Time
	p.handle(1, func(b []byte) { p.trs[1].Send(1, 0, echoProto, len(b), b) })
	p.handle(0, func(b []byte) {
		now := time.Now()
		rtt = append(rtt, us(now.Sub(last)))
		last = now
		if now.Sub(start) > budget {
			close(done)
			return
		}
		p.trs[0].Send(0, 1, echoProto, len(b), b)
	})
	p.loops[0].Inject(func() {
		start = time.Now()
		last = start
		p.trs[0].Send(0, 1, echoProto, len(payload), payload)
	})
	select {
	case <-done:
	case <-time.After(budget + 10*time.Second):
		return 0, 0, fmt.Errorf("netx ping-pong stalled")
	}
	return median(rtt), len(rtt), nil
}

// burstStats is what one burst of back-to-back sends measured.
type burstStats struct {
	framesPerSec, writesPerFrame, mallocsPerFrame, allocBytesPerFrame, overheadBytes float64
}

// burst sends n frames from one Inject on node 0 and waits until node 1
// has handled them all.
func (p *netxPair) burst(payload []byte, n int) (burstStats, error) {
	var got atomic.Int64
	done := make(chan struct{})
	p.handle(1, func(b []byte) {
		if got.Add(1) == int64(n) {
			close(done)
		}
	})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0, w0 := p.trs[0].Stats(), p.writes.Load()
	t0 := time.Now()
	p.loops[0].Inject(func() {
		for i := 0; i < n; i++ {
			p.trs[0].Send(0, 1, echoProto, len(payload), payload)
		}
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return burstStats{}, fmt.Errorf("netx burst stalled at %d of %d frames", got.Load(), n)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	st1, w1 := p.trs[0].Stats(), p.writes.Load()
	frames := float64(st1.FramesSent - st0.FramesSent)
	return burstStats{
		framesPerSec:       float64(n) / el.Seconds(),
		writesPerFrame:     float64(w1-w0) / frames,
		mallocsPerFrame:    float64(ms1.Mallocs-ms0.Mallocs) / frames,
		allocBytesPerFrame: float64(ms1.TotalAlloc-ms0.TotalAlloc) / frames,
		overheadBytes:      float64(st1.BytesSent-st0.BytesSent)/frames - float64(len(payload)),
	}, nil
}

func probeNetx(m *metrics, budget time.Duration, smoke bool) error {
	p, err := newNetxPair()
	if err != nil {
		return err
	}
	defer p.close()
	hdr, page := make([]byte, 24), make([]byte, vm.PageSize)

	for _, c := range []struct {
		name    string
		payload []byte
	}{{"hdr", hdr}, {"page", page}} {
		rtt, n, err := p.pingPong(c.payload, budget)
		if err != nil {
			return err
		}
		m.setN("netx.rtt_us."+c.name, rtt, n, fmt.Sprintf("%d B payload ping-pong, TCP loopback", len(c.payload)))
	}

	nHdr, nPage := 50_000, 5_000 // 5k pages: a queued page frame holds ~16 KB
	if smoke {
		nHdr, nPage = 2_000, 500
	}
	bh, err := p.burst(hdr, nHdr)
	if err != nil {
		return err
	}
	bp, err := p.burst(page, nPage)
	if err != nil {
		return err
	}
	m.setN("netx.burst_frames_per_sec.hdr", bh.framesPerSec, nHdr, "back-to-back sends from one Inject")
	m.setN("netx.burst_frames_per_sec.page", bp.framesPerSec, nPage, "")
	m.setN("netx.writes_per_frame", bh.writesPerFrame, nHdr, "conn.Write calls / frames, hdr burst")
	m.setN("netx.mallocs_per_frame", bh.mallocsPerFrame, nHdr, "send + receive side, hdr burst")
	m.setN("netx.alloc_bytes_per_frame.page", bp.allocBytesPerFrame, nPage, "send + receive side")
	m.setN("netx.overhead_bytes_per_frame", bh.overheadBytes, nHdr, "BytesSent / frame - payload")
	return nil
}

// ---- dsm ----

// ctrlRoundTrip sends one request line down a control connection and
// reads the reply, speaking the newline-delimited JSON of dsm/control.go.
func ctrlRoundTrip(rw *bufio.ReadWriter, req string) error {
	if _, err := rw.WriteString(req + "\n"); err != nil {
		return err
	}
	if err := rw.Flush(); err != nil {
		return err
	}
	line, err := rw.ReadBytes('\n')
	if err != nil {
		return err
	}
	var resp struct {
		OK  bool   `json:"ok"`
		Err string `json:"err"`
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("control op %s refused: %s", req, resp.Err)
	}
	return nil
}

// probeDSM measures the floor under a mesh op (a Read of a resident page),
// the JSON control plane, and the drain poll on an idle mesh — the last
// two explain why app.Run on the mesh does ~16 ops/s and gate nothing.
func probeDSM(m *metrics, budget time.Duration) error {
	r, err := openMesh()
	if err != nil {
		return err
	}
	defer r.close()
	n0 := r.nodes[0]

	var lat []float64
	for t0 := time.Now(); time.Since(t0) < budget; {
		for i := 0; i < 256; i++ {
			s := time.Now()
			if _, _, err := n0.Read(0); err != nil {
				return err
			}
			lat = append(lat, float64(time.Since(s).Nanoseconds()))
		}
	}
	m.setN("dsm.local_hit_ns", median(lat), len(lat), "median Read of a resident page")

	addrs, err := reserveAddrs(1)
	if err != nil {
		return err
	}
	srv, err := dsm.ServeCtrl(n0, addrs[0])
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := dsm.DialCtrl(addrs[0], 5*time.Second)
	if err != nil {
		return err
	}
	cl.Close() // DialCtrl proved the server answers; the probe times its own connection
	conn, err := net.DialTimeout("tcp", addrs[0], 2*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
	for _, c := range []struct{ name, req string }{
		{"dsm.ctrl_ping_us", `{"op":"ping"}`},
		{"dsm.ctrl_local_read_us", `{"op":"read","addr":0}`},
	} {
		lat = lat[:0]
		for t0 := time.Now(); time.Since(t0) < budget; {
			s := time.Now()
			if err := ctrlRoundTrip(rw, c.req); err != nil {
				return err
			}
			lat = append(lat, us(time.Since(s)))
		}
		m.setN(c.name, median(lat), len(lat), "median JSON round trip, one connection")
	}

	pollers := make([]dsm.QuietPoller, len(r.nodes))
	for i, n := range r.nodes {
		pollers[i] = n
	}
	lat = lat[:0]
	for i := 0; i < 3; i++ {
		s := time.Now()
		if err := dsm.DrainPollers(pollers, 3, 10*time.Second); err != nil {
			return err
		}
		lat = append(lat, ms(time.Since(s)))
	}
	m.setN("dsm.drain_idle_ms", median(lat), len(lat), "DrainPollers(3 rounds) on an idle mesh")
	return nil
}

// layerProbes runs every workload-independent probe.
func layerProbes(o options) *metrics {
	budget := time.Duration(o.seconds / 60 * float64(time.Second))
	if o.smoke {
		budget = 20 * time.Millisecond
	}
	m := newMetrics()
	probe(m, []string{"sim.schedule_run_ns", "sim.allocs_per_event", "sim.proc_switch_ns"},
		func() error { return probeSim(m, budget) })
	probe(m, []string{"sts.msgpath_ns", "sts.msgpath_allocs", "norma.msgpath_ns"},
		func() error { return probeTransports(m, budget) })
	var wire []string
	for _, k := range wireKinds {
		wire = append(wire, "asvm.wire_encode_ns."+k, "asvm.wire_decode_ns."+k)
	}
	probe(m, wire, func() error { return probeWire(m, budget) })
	probe(m, []string{"rt.call_ns", "rt.inject_ns", "rt.inject_burst_per_sec"},
		func() error { return probeRT(m, budget) })
	probe(m, []string{"netx.rtt_us.hdr", "netx.rtt_us.page", "netx.burst_frames_per_sec.hdr",
		"netx.burst_frames_per_sec.page", "netx.writes_per_frame", "netx.mallocs_per_frame",
		"netx.alloc_bytes_per_frame.page", "netx.overhead_bytes_per_frame"},
		func() error { return probeNetx(m, budget, o.smoke) })
	probe(m, []string{"dsm.local_hit_ns", "dsm.ctrl_ping_us", "dsm.ctrl_local_read_us", "dsm.drain_idle_ms"},
		func() error { return probeDSM(m, budget) })
	return m
}
