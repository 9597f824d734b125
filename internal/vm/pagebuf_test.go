package vm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"asvm/internal/sim"
)

// dirtyPool leaves recycled buffers full of 0xFF in the page-buffer pool
// (0xDB under -race, where PutPageBuf poisons), so the next frames are cut
// from dirty memory.
func dirtyPool(n int) {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = GetPageBuf()
		for j := range bufs[i] {
			bufs[i][j] = 0xFF
		}
	}
	for _, b := range bufs {
		PutPageBuf(b)
	}
}

// A frame comes out of the pool with whatever its last owner left in it:
// InstallPage must overwrite every byte, the tail beyond short or nil data
// with zeros.
func TestInstallPageOverwritesRecycledBuffer(t *testing.T) {
	k := testKernel(sim.NewEngine())
	obj := k.NewAnonymous(64)
	dirtyPool(64)
	short := []byte("ten bytes!")
	for idx := PageIdx(0); idx < 64; idx++ {
		data := short
		if idx%2 == 0 {
			data = nil
		}
		pg := k.InstallPage(obj, idx, data, ProtWrite)
		if len(pg.Data) != PageSize {
			t.Fatalf("page %d: frame of %d bytes", idx, len(pg.Data))
		}
		if !bytes.Equal(pg.Data[:len(data)], data) {
			t.Fatalf("page %d: head %q, want %q", idx, pg.Data[:len(data)], data)
		}
		if tail := pg.Data[len(data):]; !bytes.Equal(tail, make([]byte, len(tail))) {
			t.Fatalf("page %d: installed with %d bytes of data, tail is not zero", idx, len(data))
		}
	}
	// Removing the pages recycles their frames; the next installs are clean
	// again.
	for idx := PageIdx(0); idx < 64; idx++ {
		binary.LittleEndian.PutUint64(k.Object(obj.ID).Pages[idx].Data[PageSize-8:], ^uint64(0))
		k.RemovePage(obj, idx)
	}
	for idx := PageIdx(0); idx < 64; idx++ {
		if pg := k.InstallPage(obj, idx, nil, ProtWrite); !bytes.Equal(pg.Data, make([]byte, PageSize)) {
			t.Fatalf("page %d: zero-fill install over a recycled frame is not zero", idx)
		}
	}
}

// returnSnapshotMgr records what DataReturn was handed, as it read at the
// time of the call.
type returnSnapshotMgr struct {
	fakeMgr
	seen []byte
}

func (m *returnSnapshotMgr) DataReturn(o *Object, idx PageIdx, data []byte, dirty, kept bool) {
	m.seen = append([]byte(nil), data...)
	m.fakeMgr.DataReturn(o, idx, data, dirty, kept)
}

// Flushing a dirty page removes it first and hands the manager its contents
// second: the frame must still be the page's when DataReturn reads it, not
// back in the pool (under -race a returned buffer is poisoned, so a frame
// released too early reads 0xDB here).
func TestLockRequestFlushReturnsOriginalBytes(t *testing.T) {
	e := sim.NewEngine()
	k := testKernel(e)
	mgr := &returnSnapshotMgr{fakeMgr: fakeMgr{k: k, supply: "data", lock: ProtWrite, fill: 7}}
	obj := k.NewObject(ObjID{0, 120}, 8, mgr, CopyNone)
	task := k.NewTask("t")
	task.Map.MapObject(0, obj, 0, 8, ProtWrite, InheritShare)
	runTask(t, e, func(p *sim.Proc) error {
		if err := task.WriteU64(p, 16, 0xfeedface); err != nil {
			return err
		}
		pg := obj.Lookup(0)
		k.LockRequest(obj, 0, ProtNone, false, nil)
		if pg.Data != nil {
			t.Error("a removed page still holds its frame")
		}
		return nil
	})
	want := bytes.Repeat([]byte{7}, PageSize)
	binary.LittleEndian.PutUint64(want[16:], 0xfeedface)
	if !bytes.Equal(mgr.seen, want) {
		t.Fatalf("DataReturn saw %x… at the written word, %x… elsewhere; want feedface and 07",
			mgr.seen[16:24], mgr.seen[:8])
	}
}
