package asvm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"asvm/internal/vm"
)

func TestTraceBufDisabledRecordsNothing(t *testing.T) {
	tb := &TraceBuf{}
	tb.Addf("grant %d", 1)
	if tb.Total() != 0 || len(tb.Lines()) != 0 {
		t.Fatalf("disabled buffer recorded: total=%d lines=%v", tb.Total(), tb.Lines())
	}
}

func TestTraceBufOrderAndOverwrite(t *testing.T) {
	tb := &TraceBuf{}
	tb.Enable()
	if !tb.Enabled() {
		t.Fatal("Enable did not take")
	}
	n := traceBufCap + 17
	for i := 0; i < n; i++ {
		tb.Addf("line %d", i)
	}
	if got := tb.Total(); got != uint64(n) {
		t.Fatalf("Total = %d, want %d", got, n)
	}
	lines := tb.Lines()
	if len(lines) != traceBufCap {
		t.Fatalf("retained %d lines, want %d", len(lines), traceBufCap)
	}
	// Oldest-first: the buffer keeps exactly the last traceBufCap lines.
	for i, ln := range lines {
		want := fmt.Sprintf("line %d", n-traceBufCap+i)
		if ln != want {
			t.Fatalf("lines[%d] = %q, want %q", i, ln, want)
		}
	}
	// Lines returns a fresh slice, not the ring's backing array.
	lines[0] = "clobbered"
	if tb.Lines()[0] == "clobbered" {
		t.Fatal("Lines exposed the ring's backing storage")
	}
}

func TestTraceBufPartialFill(t *testing.T) {
	tb := &TraceBuf{}
	tb.Enable()
	tb.Addf("a")
	tb.Addf("b")
	lines := tb.Lines()
	if len(lines) != 2 || lines[0] != "a" || lines[1] != "b" {
		t.Fatalf("Lines = %v, want [a b]", lines)
	}
}

// ringScanCluster is a 3-node cluster with only global forwarding, so every
// fault walks the mapping ring (0 → 1 → 2 → 0), and a 2-page shared domain
// homed at node 0: node 1 owns page 0 and node 2 owns page 1, each by a
// fresh grant.
type ringScanCluster struct {
	c   *cluster
	ins []*Instance
}

func newRingScanCluster(tb testing.TB, trace bool) *ringScanCluster {
	cfg := DefaultConfig()
	cfg.DynamicForwarding = false
	cfg.StaticForwarding = false
	c := newCluster(tb, 3, 0, cfg)
	r := &ringScanCluster{c: c}
	for _, a := range c.asvms {
		if trace {
			a.Trace.Enable()
		}
	}
	c.setupDomain(sharedID, 2, nil, cfg)
	for _, a := range c.asvms {
		r.ins = append(r.ins, a.instances[sharedID])
	}
	r.fault(1, 0, vm.ProtWrite)
	r.fault(2, 1, vm.ProtWrite)
	if !r.ins[1].Owns(0) || !r.ins[2].Owns(1) {
		tb.Fatal("nodes 1 and 2 do not own pages 0 and 1 after their faults")
	}
	return r
}

// fault runs node n's fault on page idx to completion, entering the
// protocol the way the kernel does on a miss.
func (r *ringScanCluster) fault(n int, idx vm.PageIdx, want vm.Prot) {
	in := r.ins[n]
	in.DataRequest(in.Obj(), idx, want)
	r.c.eng.Run()
}

// readRound is two read faults that cross: node 2's request for page 0
// hops 2 → 0 → 1 and node 1's for page 1 hops 1 → 2, three ring-scan hops
// in all, and each owner answers with a read grant. Every node then sends
// as many boxes of each message kind as it receives, so the per-node
// message pools stay level. Each reader's slot goes back to Invalid with
// its frame left resident, so the next round's grant lands on that frame:
// the round repeats protocol steps alone, without a frame install.
func (r *ringScanCluster) readRound() {
	r.fault(2, 0, vm.ProtRead)
	r.fault(1, 1, vm.ProtRead)
	r.ins[2].setState(0, StInvalid)
	r.ins[1].setState(1, StInvalid)
}

// hops sums the cluster's ring-scan hop counters.
func (r *ringScanCluster) hops() (n int64) {
	for _, a := range r.c.asvms {
		n += a.Ctr.Get("ring_scan_hops")
	}
	return n
}

// TestTraceOffHotPathZeroAllocs guards that a disabled trace costs a branch,
// not an allocation: ring-scan hops and grants allocate nothing while
// tracing is off. Every trace call site must test Trace.on before it boxes
// its arguments.
func TestTraceOffHotPathZeroAllocs(t *testing.T) {
	r := newRingScanCluster(t, false)
	for i := 0; i < 16; i++ { // warm the message pools
		r.readRound()
	}
	hops := r.hops()
	if allocs := testing.AllocsPerRun(500, r.readRound); allocs != 0 {
		t.Fatalf("ring-scan read round with tracing off: %.1f allocs/op, want 0", allocs)
	}
	if got := r.hops() - hops; got != 3*501 {
		t.Fatalf("501 rounds made %d ring-scan hops, want 3 a round", got)
	}
}

// TestTraceOnRecordsHotPathLines pins, byte for byte, what the guarded call
// sites record with tracing on — fresh grants, ring-scan hops, ownership
// grants and an ownership transfer — because explorer failure reports print
// these lines.
func TestTraceOnRecordsHotPathLines(t *testing.T) {
	r := newRingScanCluster(t, true)
	r.fault(2, 0, vm.ProtRead)
	r.fault(2, 0, vm.ProtWrite)
	var got []string
	for i, a := range r.c.asvms {
		for _, ln := range a.Trace.Lines() {
			got = append(got, fmt.Sprintf("n%d %s", i, ln))
		}
	}
	want := []string{
		"n0 @230484 s fwdReq: Invalid×AccessReq p0",
		"n0 @230484 t fresh: home 0 fresh-grants obj0.5000 p0 to 1",
		"n0 @460928 s fwdReq: Invalid×AccessReq p1",
		"n0 @460928 t fwd: node 0 sends obj0.5000 p1 req (origin=2 want=write forHome=false scan=true hops=2) to 1",
		"n0 @691372 s fwdReq: Invalid×AccessReq p1",
		"n0 @691372 t fresh: home 0 fresh-grants obj0.5000 p1 to 2",
		"n0 @921816 s fwdReq: Invalid×AccessReq p0",
		"n0 @921816 t fwd: node 0 sends obj0.5000 p0 req (origin=2 want=read forHome=false scan=true hops=2) to 1",
		"n0 @1374334 s fwdReq: Invalid×AccessReq p0",
		"n0 @1374334 t fwd: node 0 sends obj0.5000 p0 req (origin=2 want=write forHome=false scan=true hops=2) to 1",
		"n1 @0 s faultStart: Invalid×FaultWrite p0",
		"n1 @0 t fwd: node 1 sends obj0.5000 p0 req (origin=1 want=write forHome=false scan=true hops=1) to 2",
		"n1 @345706 s grant: FaultOutWrite×Grant p0",
		"n1 @345706 t grant: node 1 becomes owner of obj0.5000 p0 (fresh=true hasData=false lock=write from=0 pendnil=false)",
		"n1 @576150 s fwdReq: Invalid×AccessReq p1",
		"n1 @576150 t fwd: node 1 sends obj0.5000 p1 req (origin=2 want=write forHome=true scan=false hops=3) to 0",
		"n1 @1037038 s serveReq: OwnerSole×AccessReq p0",
		"n1 @1489556 s serveReq: Owner×AccessReq p0",
		"n1 @1489556 t xfer: node 1 grants ownership of obj0.5000 p0 to 2 (upgrade=true)",
		"n2 @115262 s fwdReq: Invalid×AccessReq p0",
		"n2 @115262 t fwd: node 2 sends obj0.5000 p0 req (origin=1 want=write forHome=false scan=true hops=2) to 0",
		"n2 @345706 s faultStart: Invalid×FaultWrite p1",
		"n2 @345706 t fwd: node 2 sends obj0.5000 p1 req (origin=2 want=write forHome=false scan=true hops=1) to 0",
		"n2 @806594 s grant: FaultOutWrite×Grant p1",
		"n2 @806594 t grant: node 2 becomes owner of obj0.5000 p1 (fresh=true hasData=false lock=write from=0 pendnil=false)",
		"n2 @806594 s faultStart: Invalid×FaultRead p0",
		"n2 @806594 t fwd: node 2 sends obj0.5000 p0 req (origin=2 want=read forHome=false scan=true hops=1) to 0",
		"n2 @1259112 s grant: FaultOutRead×Grant p0",
		"n2 @1259112 s upgradeStart: ReadShared×FaultWrite p0",
		"n2 @1259112 t fwd: node 2 sends obj0.5000 p0 req (origin=2 want=write forHome=false scan=true hops=1) to 0",
		"n2 @1604818 s grant: FaultOutWrite×Grant p0",
		"n2 @1604818 t grant: node 2 becomes owner of obj0.5000 p0 (fresh=false hasData=false lock=write from=1 pendnil=false)",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("trace lines:\n%s", strings.Join(got, "\n"))
	}
}

// BenchmarkRingScanHop measures the ring-scan read round (two faults, three
// hops, two read grants; see readRound) with tracing off: the forwarding
// path's host cost, and its allocations, which must stay 0.
func BenchmarkRingScanHop(b *testing.B) {
	r := newRingScanCluster(b, false)
	for i := 0; i < 16; i++ {
		r.readRound()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.readRound()
	}
}
