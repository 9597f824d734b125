package node

import (
	"testing"
	"time"

	"asvm/internal/sim"
)

func TestDiskTiming(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 0)
	d := n.AttachDisk(e, 10*time.Millisecond, 1e6) // 1 MB/s
	var done sim.Time
	d.Write(1000, sim.Func(func() { done = e.Now() })) // 10ms seek + 1ms transfer
	e.Run()
	if done != 11*time.Millisecond {
		t.Fatalf("write done at %v, want 11ms", done)
	}
	if d.Writes != 1 || d.BytesWritten != 1000 {
		t.Fatalf("stats: %d writes %d bytes", d.Writes, d.BytesWritten)
	}
}

func TestDiskQueues(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 0)
	d := n.AttachDisk(e, 10*time.Millisecond, 1e9)
	var times []sim.Time
	for i := 0; i < 3; i++ {
		d.Read(0, sim.Func(func() { times = append(times, e.Now()) }))
	}
	if !d.Busy() {
		t.Fatal("disk should be busy")
	}
	e.Run()
	for i, want := range []sim.Time{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		if times[i] != want {
			t.Fatalf("ops at %v, want 10/20/30ms", times)
		}
	}
	if d.Reads != 3 {
		t.Fatalf("Reads = %d", d.Reads)
	}
}

func TestNodeHasMsgProc(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, 7)
	if n.MsgProc == nil || n.ID != 7 {
		t.Fatal("node misconstructed")
	}
	if n.Disk != nil {
		t.Fatal("node should have no disk by default")
	}
}
