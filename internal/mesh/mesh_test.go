package mesh

import (
	"testing"
	"testing/quick"
	"time"

	"asvm/internal/sim"
)

func testConfig() Config {
	return Config{
		Width:          4,
		Height:         4,
		HopLatency:     100 * time.Nanosecond,
		BytesPerSecond: 100e6,
		SetupLatency:   time.Microsecond,
	}
}

// stamp is a test-local Runnable recording when it ran.
type stamp struct {
	e  *sim.Engine
	at sim.Time
}

func (s *stamp) Run() { s.at = s.e.Now() }

// send transmits one message and returns the stamp its delivery sets.
func send(nw *Network, e *sim.Engine, src, dst NodeID, bytes int) *stamp {
	s := &stamp{e: e}
	nw.SendRun(src, dst, bytes, s)
	return s
}

func TestCoordAndHops(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, testConfig())
	x, y := nw.Coord(0)
	if x != 0 || y != 0 {
		t.Fatalf("Coord(0) = (%d,%d)", x, y)
	}
	x, y = nw.Coord(5)
	if x != 1 || y != 1 {
		t.Fatalf("Coord(5) = (%d,%d)", x, y)
	}
	if h := nw.Hops(0, 15); h != 6 {
		t.Fatalf("Hops(0,15) = %d, want 6", h)
	}
	if h := nw.Hops(3, 3); h != 0 {
		t.Fatalf("Hops(n,n) = %d, want 0", h)
	}
}

func TestHopsSymmetric(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, testConfig())
	f := func(a, b uint8) bool {
		s, d := NodeID(int(a)%16), NodeID(int(b)%16)
		return nw.Hops(s, d) == nw.Hops(d, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsTriangleInequality(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, testConfig())
	f := func(a, b, c uint8) bool {
		x, y, z := NodeID(int(a)%16), NodeID(int(b)%16), NodeID(int(c)%16)
		return nw.Hops(x, z) <= nw.Hops(x, y)+nw.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendLatency(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, testConfig())
	// 0 -> 5: 2 hops. 1000 bytes at 100MB/s = 10µs serialization.
	got := send(nw, e, 0, 5, 1000)
	e.Run()
	want := time.Microsecond + 2*100*time.Nanosecond + 10*time.Microsecond
	if got.at != want {
		t.Fatalf("delivered at %v, want %v", got.at, want)
	}
}

func TestSendLoopback(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, testConfig())
	got := send(nw, e, 3, 3, 1<<20)
	e.Run()
	if got.at != time.Microsecond {
		t.Fatalf("loopback delivered at %v, want setup latency only", got.at)
	}
}

func TestSenderNICQueues(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, testConfig())
	// Two 1000-byte messages from node 0: the second must queue behind the
	// first's 10µs serialization, and 0->2 is one hop longer than 0->1.
	first := send(nw, e, 0, 1, 1000)
	second := send(nw, e, 0, 2, 1000)
	e.Run()
	if want := 10*time.Microsecond + 100*time.Nanosecond; second.at-first.at != want {
		t.Fatalf("gap = %v, want %v", second.at-first.at, want)
	}
}

func TestDifferentSendersDontQueue(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, testConfig())
	a := send(nw, e, 0, 1, 1000)
	b := send(nw, e, 2, 1, 1000)
	e.Run()
	if a.at != b.at {
		t.Fatalf("independent senders interfered: %v vs %v", a.at, b.at)
	}
}

// TestOverlappingRoutesDontStall: links are not modelled, so messages from
// different senders whose XY routes share links (1->3 and 0->3 both cross
// 1->2->3) each arrive at their idle-wire latency.
func TestOverlappingRoutesDontStall(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, testConfig())
	a := send(nw, e, 1, 3, 100000)
	b := send(nw, e, 0, 3, 100000)
	e.Run()
	if want := nw.WireLatency(1, 3, 100000); a.at != want {
		t.Fatalf("1->3 delivered at %v, want %v", a.at, want)
	}
	if want := nw.WireLatency(0, 3, 100000); b.at != want {
		t.Fatalf("0->3 delivered at %v, want %v", b.at, want)
	}
}

func TestDefaultConfigFits(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 64, 72, 1792} {
		cfg := DefaultConfig(n)
		if cfg.Width*cfg.Height < n {
			t.Fatalf("DefaultConfig(%d) = %dx%d too small", n, cfg.Width, cfg.Height)
		}
	}
}

func TestNewPanicsOnTooSmallMesh(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undersized mesh did not panic")
		}
	}()
	New(sim.NewEngine(), 20, testConfig()) // 4x4 < 20
}

func TestWireLatencyMatchesSend(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, testConfig())
	want := nw.WireLatency(0, 15, 4096)
	got := send(nw, e, 0, 15, 4096)
	e.Run()
	if got.at != want {
		t.Fatalf("SendRun latency %v != WireLatency %v (idle NIC)", got.at, want)
	}
}
