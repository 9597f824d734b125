package dsm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"asvm/internal/vm"
)

// Client drives one asvmd process over its control connection.
type Client struct {
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// DialCtrl connects to a node's control server, retrying until the
// daemon is up or the deadline passes (daemons take a moment to bind).
func DialCtrl(addr string, wait time.Duration) (*Client, error) {
	deadline := time.Now().Add(wait)
	var lastErr error
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			cl := &Client{conn: c, dec: json.NewDecoder(bufio.NewReader(c)), enc: json.NewEncoder(c)}
			if _, err := cl.roundTrip(CtrlRequest{Op: "ping"}); err == nil {
				return cl, nil
			} else {
				lastErr = err
				c.Close()
			}
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dsm: control %s unreachable: %w", addr, lastErr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Close drops the control connection (the daemon keeps running).
func (c *Client) Close() { c.conn.Close() }

func (c *Client) roundTrip(req CtrlRequest) (CtrlResponse, error) {
	var resp CtrlResponse
	if err := c.enc.Encode(req); err != nil {
		return resp, err
	}
	if err := c.dec.Decode(&resp); err != nil {
		return resp, err
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("%s", resp.Err)
	}
	return resp, nil
}

// Read reads the u64 at addr on the remote node, returning the value and
// the latency the node measured for the operation itself.
func (c *Client) Read(addr vm.Addr) (uint64, time.Duration, error) {
	resp, err := c.roundTrip(CtrlRequest{Op: "read", Addr: uint64(addr)})
	return resp.Val, time.Duration(resp.LatencyNS), err
}

// Write writes a u64 on the remote node.
func (c *Client) Write(addr vm.Addr, v uint64) (time.Duration, error) {
	resp, err := c.roundTrip(CtrlRequest{Op: "write", Addr: uint64(addr), Val: v})
	return time.Duration(resp.LatencyNS), err
}

// Lock acquires pages [lo, hi) on the remote node.
func (c *Client) Lock(lo, hi int64) (time.Duration, error) {
	resp, err := c.roundTrip(CtrlRequest{Op: "lock", Lo: lo, Hi: hi})
	return time.Duration(resp.LatencyNS), err
}

// Unlock releases pages [lo, hi) on the remote node.
func (c *Client) Unlock(lo, hi int64) (time.Duration, error) {
	resp, err := c.roundTrip(CtrlRequest{Op: "unlock", Lo: lo, Hi: hi})
	return time.Duration(resp.LatencyNS), err
}

// QuietFrames implements QuietPoller over the control plane: the node's
// local drain state, and its total frame traffic so far (the stability
// signal for mesh-wide drain).
func (c *Client) QuietFrames() (quiet bool, frames uint64, err error) {
	resp, err := c.roundTrip(CtrlRequest{Op: "quiet"})
	return resp.Quiet, resp.Frames, err
}

// Counters fetches the node's merged protocol counters.
func (c *Client) Counters() (map[string]int64, error) {
	resp, err := c.roundTrip(CtrlRequest{Op: "counters"})
	return resp.Counters, err
}

// Stats fetches the node's transport ledger and headline protocol
// counters (frames, bytes, local nacks, protocol-state transitions, ring
// scan hops).
func (c *Client) Stats() (CtrlResponse, error) {
	return c.roundTrip(CtrlRequest{Op: "stats"})
}

// Shutdown asks the daemon to exit cleanly.
func (c *Client) Shutdown() error {
	_, err := c.roundTrip(CtrlRequest{Op: "shutdown"})
	return err
}

// QuietPoller is the drain-detection seam: one mesh member that can
// report "locally quiet right now" plus its monotone total frame count.
// Client implements it over the control plane, Node in-process; tests
// implement it with fakes to pin the timeout path.
type QuietPoller interface {
	QuietFrames() (quiet bool, frames uint64, err error)
}

// ErrDrainTimeout reports a mesh that never reached a stable quiescent
// window: how long the drain polled, and how long before giving up the
// frame total last moved (0 means it was still moving on the final poll —
// genuine ongoing traffic rather than a stuck not-quiet node).
type ErrDrainTimeout struct {
	Waited       time.Duration
	LastActivity time.Duration
}

func (e ErrDrainTimeout) Error() string {
	return fmt.Sprintf("dsm: mesh did not drain within %v (last frame activity %v before giving up)",
		e.Waited, e.LastActivity)
}

// DrainPollers waits until every node reports quiet AND total frame
// traffic has stopped moving for stableRounds consecutive polls. One quiet
// reading per node is not enough: a frame in flight on the wire is
// invisible to both endpoints, so drain is only believable when nothing
// has changed anywhere for a window. The pollers may be any mix of
// control-plane clients, in-process nodes, or fakes. On timeout the
// returned error is an ErrDrainTimeout.
func DrainPollers(pollers []QuietPoller, stableRounds int, timeout time.Duration) error {
	if stableRounds < 2 {
		stableRounds = 2
	}
	start := time.Now()
	deadline := start.Add(timeout)
	lastChange := start
	var lastFrames uint64
	stable := 0
	for {
		allQuiet := true
		var frames uint64
		for _, c := range pollers {
			q, f, err := c.QuietFrames()
			if err != nil {
				return fmt.Errorf("dsm: drain poll: %w", err)
			}
			allQuiet = allQuiet && q
			frames += f
		}
		if frames != lastFrames {
			lastChange = time.Now()
		}
		if allQuiet && frames == lastFrames {
			stable++
			if stable >= stableRounds {
				return nil
			}
		} else {
			stable = 0
		}
		lastFrames = frames
		if time.Now().After(deadline) {
			return ErrDrainTimeout{
				Waited:       time.Since(start),
				LastActivity: time.Since(lastChange),
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
}
