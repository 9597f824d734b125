package dsm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"asvm/internal/vm"
)

// FuzzCtrlServe writes arbitrary newline-delimited bytes into a control
// server fronting node 0 of a 2-node pipe mesh. Properties: no panic; every
// request the JSON decoder accepts gets exactly one response, in order;
// unknown ops and out-of-region spans or addresses come back ok:false with
// an error; a line that does not decode (or a shutdown) closes only that
// connection, and a fresh connection's ping still answers.
func FuzzCtrlServe(f *testing.F) {
	const pages = 4
	nodes, stop, err := PipeMesh(2, pages)
	if err != nil {
		f.Fatalf("pipe mesh: %v", err)
	}
	f.Cleanup(stop)
	s := &CtrlServer{node: nodes[0], conns: make(map[net.Conn]bool), Shutdown: make(chan struct{})}

	for _, seed := range []string{
		// TestControlPlane's bad-span probes.
		`{"op":"unlock","lo":0,"hi":1048576}`,
		`{"op":"unlock","lo":-1,"hi":1}`,
		`{"op":"lock","lo":0,"hi":1048576}`,
		`{"op":"lock","lo":-1,"hi":1}`,
		`{"op":"ping"}` + "\n" + `{"op":"write","addr":8,"val":7}` + "\n" + `{"op":"read","addr":8}`,
		`{"op":"lock","lo":0,"hi":2}` + "\n" + `{"op":"unlock","lo":0,"hi":2}` + "\n" + `{"op":"bogus"}`,
		`{"op":"read","addr":8190}` + "\n" + `{"op":"stats"}` + "\n" + `{"op":"ping"`,
		`{"op":"counters"} not json {"op":"ping"}`,
		`{"op":"shutdown"}` + "\n" + `{"op":"ping"}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// A trailing newline ends a final bare number, which the streaming
		// decoder would otherwise wait on.
		data = append(data, '\n')
		want, closes := expectCtrl(data, pages)

		client, srv := net.Pipe()
		done := make(chan struct{})
		go func() { s.serve(srv); close(done) }()
		go client.Write(data) // a connection the server closes unblocks it

		client.SetReadDeadline(time.Now().Add(10 * time.Second))
		dec := json.NewDecoder(bufio.NewReader(client))
		for i, req := range want {
			var resp CtrlResponse
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("request %d %+v: no response: %v", i, req, err)
			}
			if !resp.OK && resp.Err == "" {
				t.Errorf("request %d %+v: ok:false without an error", i, req)
			}
			if valid := ctrlValid(req, pages); valid != resp.OK {
				t.Errorf("request %d %+v: reply %+v, want ok=%v", i, req, resp, valid)
			}
		}
		if closes {
			var extra json.RawMessage
			if err := dec.Decode(&extra); err == nil {
				t.Fatalf("connection answered %s after it should have closed", extra)
			}
		}
		client.Close()
		<-done
		nodes[0].Unlock(0, pages)

		client, srv = net.Pipe()
		defer client.Close()
		go s.serve(srv)
		client.SetDeadline(time.Now().Add(10 * time.Second))
		if err := json.NewEncoder(client).Encode(CtrlRequest{Op: "ping"}); err != nil {
			t.Fatalf("fresh connection: ping: %v", err)
		}
		var resp CtrlResponse
		if err := json.NewDecoder(client).Decode(&resp); err != nil || !resp.OK {
			t.Fatalf("fresh connection: ping = %+v, %v", resp, err)
		}
	})
}

// expectCtrl decodes data the way CtrlServer.serve does and returns the
// requests it must answer, plus whether the server then closes the
// connection (a decode error or a shutdown) rather than waiting for more
// input (a clean end or a truncated value).
func expectCtrl(data []byte, pages int64) (reqs []CtrlRequest, closes bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var req CtrlRequest
		if err := dec.Decode(&req); err != nil {
			return reqs, !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF)
		}
		reqs = append(reqs, req)
		if req.Op == "shutdown" {
			return reqs, true
		}
	}
}

// ctrlValid reports whether a node of a pages-page region can serve req.
func ctrlValid(req CtrlRequest, pages int64) bool {
	switch req.Op {
	case "ping", "quiet", "counters", "stats", "shutdown":
		return true
	case "read", "write":
		return req.Addr < uint64(pages)*vm.PageSize && req.Addr%vm.PageSize <= vm.PageSize-8
	case "lock":
		return 0 <= req.Lo && req.Lo < req.Hi && req.Hi <= pages
	case "unlock":
		return 0 <= req.Lo && req.Hi <= pages
	}
	return false
}
