package exp

import (
	"fmt"
	"strings"
	"testing"

	"asvm/internal/app/simhost"
	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// TestGenScaleOpsChurnBalance pins the generator's structural contract: at
// every prefix each object's opens exceed its closes by at most one (open
// only what is closed, close only what is open), no touch lands on a closed
// object, and the touch count is exactly OpsPerNode.
func TestGenScaleOpsChurnBalance(t *testing.T) {
	cells := []ScaleCell{
		{Objects: 16, PagesPerObject: 8, OpsPerNode: 200, ZipfSkew: 1.0, ChurnEvery: 12, OpenObjects: 4, Seed: 1},
		{Objects: 5, PagesPerObject: 4, OpsPerNode: 100, ZipfSkew: 0.8, ChurnEvery: 3, OpenObjects: 2, Seed: 42},
		// Degenerate corners: one object (churn can never fire), churn off,
		// OpenObjects over-asked (clamped to Objects).
		{Objects: 1, PagesPerObject: 2, OpsPerNode: 30, ZipfSkew: 1.0, ChurnEvery: 4, OpenObjects: 3, Seed: 7},
		{Objects: 8, PagesPerObject: 8, OpsPerNode: 50, ZipfSkew: 1.0, ChurnEvery: 0, OpenObjects: 8, Seed: 9},
	}
	for ci, cell := range cells {
		for _, node := range []int{0, 1, 2, 3, 17} {
			ops := GenScaleOps(cell, node)
			open := make(map[int]bool)
			touches := 0
			for i, op := range ops {
				if op.Obj < 0 || op.Obj >= cell.Objects {
					t.Fatalf("cell %d node %d op %d: object %d out of range", ci, node, i, op.Obj)
				}
				switch op.Kind {
				case OpOpen:
					if open[op.Obj] {
						t.Fatalf("cell %d node %d op %d: open of already-open object %d", ci, node, i, op.Obj)
					}
					open[op.Obj] = true
				case OpClose:
					if !open[op.Obj] {
						t.Fatalf("cell %d node %d op %d: close of closed object %d", ci, node, i, op.Obj)
					}
					delete(open, op.Obj)
					if len(open) == 0 {
						t.Fatalf("cell %d node %d op %d: close left nothing open", ci, node, i)
					}
				case OpTouch:
					if !open[op.Obj] {
						t.Fatalf("cell %d node %d op %d: touch on closed object %d", ci, node, i, op.Obj)
					}
					if op.Page < 0 || op.Page >= cell.PagesPerObject {
						t.Fatalf("cell %d node %d op %d: page %d out of range", ci, node, i, op.Page)
					}
					touches++
				default:
					t.Fatalf("cell %d node %d op %d: unknown kind %d", ci, node, i, op.Kind)
				}
			}
			if touches != cell.OpsPerNode {
				t.Fatalf("cell %d node %d: %d touches, want %d", ci, node, touches, cell.OpsPerNode)
			}
			if len(open) == 0 {
				t.Fatalf("cell %d node %d: stream ends with nothing open", ci, node)
			}
		}
	}
}

// TestGenScaleOpsDeterministic: the stream is a pure function of (cell,
// node) — and distinct nodes get distinct streams (the per-node salt works).
func TestGenScaleOpsDeterministic(t *testing.T) {
	cell := ScaleCell{Objects: 16, PagesPerObject: 8, OpsPerNode: 64,
		ZipfSkew: 1.0, ChurnEvery: 12, OpenObjects: 4, Seed: 5}
	a := GenScaleOps(cell, 3)
	b := GenScaleOps(cell, 3)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs on replay: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := GenScaleOps(cell, 4)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("nodes 3 and 4 generated identical streams")
	}
}

// TestRunScaleCellQuick runs the quick 64-node cell end to end and checks
// the ledger is self-consistent: traffic actually flowed, the forwarding
// classes sum sensibly, and the fallback rate is a valid fraction.
func TestRunScaleCellQuick(t *testing.T) {
	res, err := RunScaleCell(ScaleCells(1, true)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Touches == 0 || res.Faults == 0 || res.DataRequests == 0 {
		t.Fatalf("cell saw no traffic: %+v", res)
	}
	if res.P99 < res.P50 || res.Mean <= 0 {
		t.Fatalf("latency summary inconsistent: p50=%v p99=%v mean=%v", res.P50, res.P99, res.Mean)
	}
	if f := res.FallbackRate(); f < 0 || f > 1 {
		t.Fatalf("fallback rate %v out of [0,1]", f)
	}
}

// TestScaleCellSampledInvariants shows the scale cell's drain check is the
// full one whatever SamplePages says: the benchmark's field once made the
// check cover only 4 of each object's 8 pages (drawn from the cell's seed)
// and skip home bookkeeping. A write copy planted on a non-owner node, on an
// owned page outside that sample, must fail the cell.
func TestScaleCellSampledInvariants(t *testing.T) {
	cell := ScaleCells(1, true)[0]
	cell.SamplePages = 4
	if _, err := runScaleCell(cell, nil); err != nil {
		t.Fatal(err)
	}
	sampled := map[int]bool{}
	for rng := sim.NewRNG(cell.Seed); len(sampled) < cell.SamplePages; {
		sampled[rng.Intn(cell.PagesPerObject)] = true
	}
	planted := ""
	_, err := runScaleCell(cell, func(c *machine.Cluster, w *simhost.World) {
		for o := 0; o < cell.Objects && planted == ""; o++ {
			id := w.Region(o).ASVMInfo().ID
			for pg := 0; pg < cell.PagesPerObject && planted == ""; pg++ {
				idx := vm.PageIdx(pg)
				if sampled[pg] || !ownedOn(c, id, idx) {
					continue
				}
				for n, nd := range c.ASVMs {
					if in := nd.Instance(id); in != nil && !in.Obj().Resident(idx) {
						nd.K.InstallPage(in.Obj(), idx, nil, vm.ProtWrite)
						planted = fmt.Sprintf("object %d page %d on node %d", o, pg, n)
						break
					}
				}
			}
		}
	})
	if planted == "" {
		t.Fatalf("no owned page outside the sample %v to plant on", sampled)
	}
	if err == nil || !strings.Contains(err.Error(), "write-held by non-owner") {
		t.Fatalf("write copy planted at %s: check returned %v", planted, err)
	}
}

// ownedOn reports whether some node owns page idx of object id.
func ownedOn(c *machine.Cluster, id vm.ObjID, idx vm.PageIdx) bool {
	for _, nd := range c.ASVMs {
		if in := nd.Instance(id); in != nil && in.Owns(idx) {
			return true
		}
	}
	return false
}
