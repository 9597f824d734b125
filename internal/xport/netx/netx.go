package netx

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/xport"
)

// Exec serializes work onto whoever owns the protocol engine. rt.Loop
// implements it; socket readers and writer goroutines never touch protocol
// state directly — every delivery and every Nack goes through it, so the
// protocol core stays single-threaded exactly as it is under the
// simulator. Do may run fn on the caller when the engine is idle (a reader
// runs the handler of the frame it just decoded); Inject never does
// (self-sends and local Nacks come from inside the engine: they queue).
type Exec interface {
	Inject(fn func())
	Do(fn func())
}

// Config assembles a Transport for one node of a mesh.
type Config struct {
	// Self is this process's node identity; the only node handlers may be
	// registered for.
	Self mesh.NodeID

	// Peers maps every *other* node to the address its process listens
	// on. A destination absent from the map bounces immediately.
	Peers map[mesh.NodeID]string

	// Listen is the address to accept inbound connections on (":0" picks
	// an ephemeral port; empty runs send-only, for tests that wire
	// connections by hand with ServeConn).
	Listen string

	// Dial overrides outbound connection establishment (tests substitute
	// net.Pipe). Nil means TCP with a dialTimeout bound.
	Dial func(addr string) (net.Conn, error)
}

const (
	// dialTimeout bounds a TCP dial attempt.
	dialTimeout = 2 * time.Second
	// redialCooldown is how long a peer stays marked down after a failed
	// dial or broken write; sends during the cooldown bounce immediately
	// instead of blocking on dials that will fail.
	redialCooldown = time.Second
)

// Stats counts transport-level traffic and failures. All fields are
// totals since Start; read a coherent snapshot with Transport.Stats.
type Stats struct {
	FramesSent, FramesRecv uint64
	BytesSent, BytesRecv   uint64
	BouncesSent            uint64 // inbound messages we echoed back undeliverable
	BouncesRecv            uint64 // our messages a peer echoed back
	LocalNacks             uint64 // sends that bounced without reaching a socket
	Dials, DialFailures    uint64
	DecodeErrors           uint64
}

// Transport is the TCP-backed xport.Transport. One per process; it speaks
// for exactly one node (Config.Self).
type Transport struct {
	cfg  Config
	exec Exec

	mu       sync.RWMutex
	handlers map[xport.ProtoID]xport.Handler
	closed   bool

	peers map[mesh.NodeID]*peerLink

	// sendRoutes caches each channel's wire name and codec, so a steady-state
	// Send takes no registry lock and builds no string. Engine owner only.
	sendRoutes map[xport.ProtoID]route

	ln      net.Listener
	inbound sync.Map // net.Conn -> struct{}
	wg      sync.WaitGroup

	outstanding atomic.Int64

	st struct {
		framesSent, framesRecv atomic.Uint64
		bytesSent, bytesRecv   atomic.Uint64
		bouncesSent            atomic.Uint64
		bouncesRecv            atomic.Uint64
		localNacks             atomic.Uint64
		dials, dialFailures    atomic.Uint64
		decodeErrors           atomic.Uint64
	}
}

// outFrame is one queued outbound message: the prebuilt frame plus what a
// local Nack needs if the peer turns out to be unreachable. buf belongs to
// Send until queued, then to the peer's writer; whoever settles the frame
// (written, or failed to a Nack) returns it to its pool.
type outFrame struct {
	buf   *[]byte
	proto xport.ProtoID
	dst   mesh.NodeID
	m     interface{}
}

// wireSent is implemented by messages that hold something for the wire only
// (a pooled page snapshot): a writer calls it once the frame is written, at
// most once per message and never for one that comes back as a Nack.
type wireSent interface{ WireSent() }

// framePools holds outbound frame buffers in two size classes, header
// frames and page frames (key: larger than smallFrame), so a buffer is
// sized to the frame it carries and a long queue of header frames never
// pins page-sized buffers.
var framePools = map[bool]*sync.Pool{false: {}, true: {}}

const smallFrame = 512

func getFrameBuf(size int) *[]byte {
	if b, _ := framePools[size > smallFrame].Get().(*[]byte); b != nil {
		return b
	}
	b := make([]byte, 0, size)
	return &b
}

func putFrameBuf(b *[]byte) { framePools[cap(*b) > smallFrame].Put(b) }

// peerLink is the outbound half of one peering: a queue drained by a
// dedicated writer goroutine that owns the connection and its lifecycle.
type peerLink struct {
	id   mesh.NodeID
	addr string

	mu        sync.Mutex
	cond      *sync.Cond
	q         []outFrame
	closed    bool
	downUntil time.Time
}

// New builds a Transport. Call Start to begin accepting inbound
// connections; outbound writers start lazily on first send.
func New(exec Exec, cfg Config) *Transport {
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dialTimeout)
		}
	}
	t := &Transport{
		cfg:        cfg,
		exec:       exec,
		handlers:   make(map[xport.ProtoID]xport.Handler),
		sendRoutes: make(map[xport.ProtoID]route),
		peers:      make(map[mesh.NodeID]*peerLink),
	}
	for id, addr := range t.cfg.Peers {
		t.AddPeer(id, addr)
	}
	return t
}

// AddPeer installs (or replaces the address of) a peer after
// construction — daemons learn each other's ephemeral ports only once
// every listener is up. Replacing an existing peer's address takes effect
// on its next (re)dial.
func (t *Transport) AddPeer(id mesh.NodeID, addr string) {
	if id == t.cfg.Self {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if p, ok := t.peers[id]; ok {
		p.mu.Lock()
		p.addr = addr
		p.mu.Unlock()
		return
	}
	p := &peerLink{id: id, addr: addr}
	p.cond = sync.NewCond(&p.mu)
	t.peers[id] = p
	t.wg.Add(1)
	go t.writer(p)
}

func (t *Transport) peer(id mesh.NodeID) *peerLink {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.peers[id]
}

// Register implements xport.Transport. netx speaks for one node, so n
// must be Self.
func (t *Transport) Register(n mesh.NodeID, proto xport.ProtoID, h xport.Handler) {
	if n != t.cfg.Self {
		panic(fmt.Sprintf("netx: Register for node %d on node %d's transport", n, t.cfg.Self))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.handlers[proto]; dup {
		panic(fmt.Sprintf("netx: duplicate handler for (%d, %v)", n, proto))
	}
	t.handlers[proto] = h
}

func (t *Transport) handler(proto xport.ProtoID) xport.Handler {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.handlers[proto]
}

// Send implements xport.Transport. Local destinations deliver through the
// exec without touching a codec; remote destinations are encoded here, on
// the caller's goroutine, and queued to the peer's writer. Every failure
// mode — unknown peer, dead peer, remote bounce — resolves to the
// standard Nack on the sender's own handler, so the protocol's forwarding
// fallback chain works against killed processes exactly as it does
// against crashed simulated nodes.
func (t *Transport) Send(src, dst mesh.NodeID, proto xport.ProtoID, payloadBytes int, m interface{}) {
	if src != t.cfg.Self {
		panic(fmt.Sprintf("netx: Send from node %d on node %d's transport", src, t.cfg.Self))
	}
	if dst == t.cfg.Self {
		h := t.handler(proto)
		if h == nil {
			// Sending to yourself on an unregistered channel: bounce, and
			// with no handler to bounce to either, that is the contract's
			// panic case.
			panic(fmt.Sprintf("netx: message to unregistered (%d, %v) and sender has no handler", dst, proto))
		}
		t.outstanding.Add(1)
		t.exec.Inject(func() {
			t.outstanding.Add(-1)
			h(src, m)
		})
		return
	}

	p := t.peer(dst)
	if p == nil {
		t.nackLocal(dst, proto, m)
		return
	}

	r, ok := t.sendRoutes[proto]
	if !ok {
		r.name = proto.Name()
		if r.codec = xport.LookupWireCodec(r.name); r.codec == nil {
			panic(fmt.Sprintf("netx: no wire codec registered for channel %q", r.name))
		}
		t.sendRoutes[proto] = r
	}
	// 64: room for the message's own header fields around the payload.
	buf := getFrameBuf(msgFixed + len(r.name) + payloadBytes + 64)
	var err error
	if *buf, err = appendMsgFrame((*buf)[:0], src, dst, r.name, r.codec, m); err != nil {
		panic(fmt.Sprintf("netx: encoding %T for channel %q: %v", m, r.name, err))
	}

	t.outstanding.Add(1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		t.outstanding.Add(-1)
		putFrameBuf(buf)
		t.nackLocal(dst, proto, m)
		return
	}
	p.q = append(p.q, outFrame{buf: buf, proto: proto, dst: dst, m: m})
	p.cond.Signal()
	p.mu.Unlock()
}

// nackLocal bounces m back to the sender's own handler, per the Transport
// contract. Panics only if the sender has no handler to tell.
func (t *Transport) nackLocal(dst mesh.NodeID, proto xport.ProtoID, m interface{}) {
	h := t.handler(proto)
	if h == nil {
		panic(fmt.Sprintf("netx: message to unreachable (%d, %v) and sender has no handler", dst, proto))
	}
	t.st.localNacks.Add(1)
	t.outstanding.Add(1)
	t.exec.Inject(func() {
		t.outstanding.Add(-1)
		h(dst, xport.Nack{Dst: dst, Proto: proto, Msg: m})
	})
}

// writer drains one peer's queue onto its connection, dialing lazily and
// bouncing everything queued whenever the peer proves unreachable.
func (t *Transport) writer(p *peerLink) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		p.mu.Lock()
		for len(p.q) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			// Bounce whatever is still queued so no message silently
			// vanishes at shutdown.
			batch := p.q
			p.q = nil
			p.mu.Unlock()
			t.failBatch(batch)
			return
		}
		batch := p.q
		p.q = nil
		down := !p.downUntil.IsZero() && time.Now().Before(p.downUntil)
		addr := p.addr
		p.mu.Unlock()

		if down {
			t.failBatch(batch)
			continue
		}
		if conn == nil {
			t.st.dials.Add(1)
			c, err := t.cfg.Dial(addr)
			if err != nil {
				t.st.dialFailures.Add(1)
				t.markDown(p)
				t.failBatch(batch)
				continue
			}
			hello := appendHello(nil, t.cfg.Self)
			if _, err := c.Write(hello); err != nil {
				c.Close()
				t.markDown(p)
				t.failBatch(batch)
				continue
			}
			conn = c
			// Bounces for our messages come back on the connection they
			// went out on; a dedicated reader turns them into local Nacks.
			// It dies with the connection.
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.readFrames(c, p.id, false)
			}()
		}
		for i, f := range batch {
			if _, err := conn.Write(*f.buf); err != nil {
				conn.Close()
				conn = nil
				t.markDown(p)
				t.failBatch(batch[i:])
				break
			}
			t.st.framesSent.Add(1)
			t.st.bytesSent.Add(uint64(len(*f.buf)))
			t.outstanding.Add(-1)
			putFrameBuf(f.buf)
			if r, ok := f.m.(wireSent); ok {
				r.WireSent()
			}
		}
	}
}

func (t *Transport) markDown(p *peerLink) {
	p.mu.Lock()
	p.downUntil = time.Now().Add(redialCooldown)
	p.mu.Unlock()
}

// failBatch turns queued frames into local Nacks (peer unreachable).
func (t *Transport) failBatch(batch []outFrame) {
	for _, f := range batch {
		t.outstanding.Add(-1)
		putFrameBuf(f.buf)
		t.nackLocal(f.dst, f.proto, f.m)
	}
}

// Start begins accepting inbound connections on cfg.Listen. It is a
// no-op for send-only configurations (empty Listen).
func (t *Transport) Start() error {
	if t.cfg.Listen == "" {
		return nil
	}
	ln, err := net.Listen("tcp", t.cfg.Listen)
	if err != nil {
		return err
	}
	t.ln = ln
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.ServeConn(c)
			}()
		}
	}()
	return nil
}

// Addr returns the inbound listen address (useful with ":0"), or nil when
// not listening.
func (t *Transport) Addr() net.Addr {
	if t.ln == nil {
		return nil
	}
	return t.ln.Addr()
}

// ServeConn runs the inbound half of one connection to completion: hello,
// then a stream of msg/bounce frames. Exported so tests can wire meshes
// out of net.Pipe instead of sockets. Closes c before returning.
func (t *Transport) ServeConn(c net.Conn) {
	defer c.Close()
	t.inbound.Store(c, struct{}{})
	defer t.inbound.Delete(c)

	t.readFrames(c, 0, true)
}

// route is one proto name resolved against this process's registries. Each
// connection caches the routes its frames use, so a steady-state frame
// costs no global lock and no string.
type route struct {
	proto xport.ProtoID
	name  string // Send's cache only
	codec xport.WireCodec
	h     xport.Handler // nil until Self registers one
}

// resolve returns the connection's route for name, resolving it on first
// sight; nil when this process has no codec for the channel.
func resolve(routes map[string]*route, name []byte) *route {
	r := routes[string(name)]
	if r == nil {
		if codec := xport.LookupWireCodec(string(name)); codec != nil {
			r = &route{proto: xport.RegisterProto(string(name)), codec: codec}
			routes[string(name)] = r
		}
	}
	return r
}

// readFrames handles the frames arriving on c until it breaks (EOF or a
// broken conn is the peer's problem to retry). On an inbound connection
// peer is the hello's node ID, messages arrive, and this goroutine is the
// only writer: an undeliverable message is echoed back so the sender's
// transport raises the standard Nack. On an outbound one the only
// legitimate traffic is bounces of messages this process sent. Every frame
// aliases the reader's buffer: nothing may keep it past the next read.
func (t *Transport) readFrames(c net.Conn, peer mesh.NodeID, inbound bool) {
	fr := newFrameReader(c, maxFrame)
	if inbound {
		var err error
		if peer, err = readHello(fr); err != nil {
			return
		}
	}
	routes := make(map[string]*route)
	for {
		frame, err := fr.next()
		if err != nil {
			return
		}
		t.st.framesRecv.Add(1)
		t.st.bytesRecv.Add(uint64(len(frame)))
		body := frame[4:]
		if len(body) == 0 {
			continue
		}
		wm, err := parseMsgBody(body)
		// A message is from the peer, a bounce is of a message of ours;
		// otherwise the framing is broken or the peer lies, and nothing
		// downstream is trustworthy.
		legit := wm.kind == frameMsg && inbound && wm.src == peer ||
			wm.kind == frameBounce && wm.src == t.cfg.Self
		if err != nil || !legit {
			t.st.decodeErrors.Add(1)
			return
		}
		r := resolve(routes, wm.protoName)
		if wm.kind == frameBounce {
			// Our own message, echoed: back to the standard local Nack.
			t.st.bouncesRecv.Add(1)
			if m, ok := t.decode(r, wm); ok {
				t.nackLocal(wm.dst, r.proto, m)
			}
		} else if !t.deliver(r, wm) {
			t.st.bouncesSent.Add(1)
			body[0] = frameBounce
			if _, err := c.Write(frame); err != nil {
				return
			}
		}
	}
}

// decode decodes wm with its route's codec; false when this process has no
// codec for the channel or the encoding is corrupt.
func (t *Transport) decode(r *route, wm wireMsg) (interface{}, bool) {
	if r == nil {
		return nil, false
	}
	m, err := r.codec.DecodeMsg(wm.encoded)
	if err != nil {
		t.st.decodeErrors.Add(1)
	}
	return m, err == nil
}

// deliver decodes an inbound message and hands it to the registered
// handler via the exec, which runs it on this goroutine if the engine is
// idle. Returns false when this process cannot accept it
// (wrong destination, no handler, no codec) — the caller bounces.
func (t *Transport) deliver(r *route, wm wireMsg) bool {
	if wm.dst != t.cfg.Self || r == nil {
		return false
	}
	if r.h == nil {
		if r.h = t.handler(r.proto); r.h == nil {
			return false
		}
	}
	m, ok := t.decode(r, wm)
	if !ok {
		return false
	}
	h, src := r.h, wm.src
	t.outstanding.Add(1)
	t.exec.Do(func() {
		t.outstanding.Add(-1)
		h(src, m)
	})
	return true
}

// Outstanding reports messages accepted by Send whose fate is not yet
// settled: queued to a writer, or injected but not yet executed. Zero
// means the transport itself holds nothing — frames already on the wire
// are invisible to both endpoints, which is why drain detection polls for
// a stability window rather than trusting one zero reading.
func (t *Transport) Outstanding() int { return int(t.outstanding.Load()) }

// Stats returns a snapshot of the traffic counters.
func (t *Transport) Stats() Stats {
	return Stats{
		FramesSent:   t.st.framesSent.Load(),
		FramesRecv:   t.st.framesRecv.Load(),
		BytesSent:    t.st.bytesSent.Load(),
		BytesRecv:    t.st.bytesRecv.Load(),
		BouncesSent:  t.st.bouncesSent.Load(),
		BouncesRecv:  t.st.bouncesRecv.Load(),
		LocalNacks:   t.st.localNacks.Load(),
		Dials:        t.st.dials.Load(),
		DialFailures: t.st.dialFailures.Load(),
		DecodeErrors: t.st.decodeErrors.Load(),
	}
}

// Close shuts the transport down: the listener stops, inbound connections
// close, writer goroutines bounce their queues and exit. Close waits for
// all of them.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	peers := make([]*peerLink, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()

	if t.ln != nil {
		t.ln.Close()
	}
	for _, p := range peers {
		p.mu.Lock()
		p.closed = true
		p.cond.Signal()
		p.mu.Unlock()
	}
	t.inbound.Range(func(k, _ interface{}) bool {
		k.(net.Conn).Close()
		return true
	})
	t.wg.Wait()
}

var _ xport.Transport = (*Transport)(nil)
