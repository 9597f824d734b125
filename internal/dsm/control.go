package dsm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"asvm/internal/vm"
)

// The control plane: each asvmd process runs a tiny newline-delimited
// JSON server the demo orchestrator drives operations through. It is
// deliberately trivial — one request, one response, per line — because it
// is scaffolding around the thing under test (the ASVM protocol on the
// data plane), not part of it.

// CtrlRequest is one control operation.
type CtrlRequest struct {
	Op   string `json:"op"` // ping|read|write|lock|unlock|quiet|counters|stats|shutdown
	Addr uint64 `json:"addr,omitempty"`
	Val  uint64 `json:"val,omitempty"`
	Lo   int64  `json:"lo,omitempty"`
	Hi   int64  `json:"hi,omitempty"`
}

// CtrlResponse answers one CtrlRequest.
type CtrlResponse struct {
	OK        bool             `json:"ok"`
	Err       string           `json:"err,omitempty"`
	Val       uint64           `json:"val,omitempty"`
	LatencyNS int64            `json:"latency_ns,omitempty"`
	Quiet     bool             `json:"quiet,omitempty"`
	Counters  map[string]int64 `json:"counters,omitempty"`
	Frames    uint64           `json:"frames,omitempty"`
	Bytes     uint64           `json:"bytes,omitempty"`
	Nacks     uint64           `json:"nacks,omitempty"`
	// stats only: the protocol-health counters a mesh operator watches —
	// page state-machine transitions and global ring-scan hops (the O(n)
	// fallback the hint caches exist to keep rare).
	ProtoTransitions int64 `json:"proto_transitions,omitempty"`
	RingScanHops     int64 `json:"ring_scan_hops,omitempty"`
}

// CtrlServer serves the control protocol for one Node.
type CtrlServer struct {
	node *Node
	ln   net.Listener

	mu    sync.Mutex
	conns map[net.Conn]bool

	// Shutdown is closed when a shutdown request is served; the daemon
	// main waits on it.
	Shutdown chan struct{}
	once     sync.Once
}

// ServeCtrl starts the control server on the node's configured control
// address.
func ServeCtrl(n *Node, addr string) (*CtrlServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dsm: control listen: %w", err)
	}
	s := &CtrlServer{node: n, ln: ln, conns: make(map[net.Conn]bool), Shutdown: make(chan struct{})}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[c] = true
			s.mu.Unlock()
			go s.serve(c)
		}
	}()
	return s, nil
}

// Daemon is the whole body of a mesh daemon process: it loads the config
// at configPath, opens node self, serves the control protocol on the
// node's Ctrl address, and blocks until a shutdown request or SIGINT/
// SIGTERM arrives. Log lines start with name. cmd/asvmd and netdemo's
// -serve mode both run it.
func Daemon(name, configPath string, self int) error {
	cfg, err := LoadConfig(configPath)
	if err != nil {
		return err
	}
	n, err := Open(cfg, self)
	if err != nil {
		return err
	}
	defer n.Close()
	ctrl, err := ServeCtrl(n, cfg.Node(self).Ctrl)
	if err != nil {
		return err
	}
	defer ctrl.Close()

	log.Printf("%s: node %d up (xport %s, ctrl %s, region %q, %d pages, home %d)",
		name, self, n.Addr(), ctrl.Addr(), cfg.Region, cfg.Pages, cfg.Home)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-ctrl.Shutdown:
		log.Printf("%s: node %d shutting down (control request)", name, self)
	case s := <-sig:
		log.Printf("%s: node %d shutting down (%v)", name, self, s)
	}
	return nil
}

// Addr returns the resolved control listen address.
func (s *CtrlServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and closes live connections.
func (s *CtrlServer) Close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

func (s *CtrlServer) serve(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	dec := json.NewDecoder(bufio.NewReader(c))
	enc := json.NewEncoder(c)
	for {
		var req CtrlRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := s.handle(req)
		if err := enc.Encode(resp); err != nil {
			return
		}
		if req.Op == "shutdown" {
			s.once.Do(func() { close(s.Shutdown) })
			return
		}
	}
}

func (s *CtrlServer) handle(req CtrlRequest) CtrlResponse {
	n := s.node
	switch req.Op {
	case "ping":
		return CtrlResponse{OK: true}
	case "read":
		val, lat, err := n.Read(vm.Addr(req.Addr))
		if err != nil {
			return CtrlResponse{Err: err.Error(), LatencyNS: int64(lat)}
		}
		return CtrlResponse{OK: true, Val: val, LatencyNS: int64(lat)}
	case "write":
		lat, err := n.Write(vm.Addr(req.Addr), req.Val)
		if err != nil {
			return CtrlResponse{Err: err.Error(), LatencyNS: int64(lat)}
		}
		return CtrlResponse{OK: true, LatencyNS: int64(lat)}
	case "lock":
		lat, err := n.Lock(req.Lo, req.Hi)
		if err != nil {
			return CtrlResponse{Err: err.Error(), LatencyNS: int64(lat)}
		}
		return CtrlResponse{OK: true, LatencyNS: int64(lat)}
	case "unlock":
		lat, err := n.Unlock(req.Lo, req.Hi)
		if err != nil {
			return CtrlResponse{Err: err.Error(), LatencyNS: int64(lat)}
		}
		return CtrlResponse{OK: true, LatencyNS: int64(lat)}
	case "quiet":
		st := n.TransportStats()
		return CtrlResponse{OK: true, Quiet: n.Quiet(),
			Frames: st.FramesSent + st.FramesRecv, Bytes: st.BytesSent + st.BytesRecv}
	case "counters":
		return CtrlResponse{OK: true, Counters: n.Counters()}
	case "stats":
		st := n.TransportStats()
		ctrs := n.Counters()
		return CtrlResponse{OK: true,
			Frames:           st.FramesSent + st.FramesRecv,
			Bytes:            st.BytesSent + st.BytesRecv,
			Nacks:            st.LocalNacks,
			ProtoTransitions: ctrs["proto_transitions"],
			RingScanHops:     ctrs["ring_scan_hops"]}
	case "shutdown":
		return CtrlResponse{OK: true}
	default:
		return CtrlResponse{Err: fmt.Sprintf("dsm: unknown control op %q", req.Op)}
	}
}
