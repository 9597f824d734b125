package exp

import (
	"bytes"
	"strings"
	"testing"
)

// quickChaosRun runs the quick grid's cell for the named workload at the
// given seed under the drop rate's plan.
func quickChaosRun(t *testing.T, name string, seed uint64, rate float64) ChaosResult {
	t.Helper()
	for _, c := range chaosCells([]float64{rate}, seed, true) {
		if strings.HasPrefix(c.workload, name) {
			res, err := runChaos(c.params, ChaosPlanFor(rate), c.run)
			if err != nil {
				t.Fatalf("%s: %v", c.workload, err)
			}
			return res
		}
	}
	t.Fatalf("no quick chaos cell named %q", name)
	return ChaosResult{}
}

// TestChaosSweepCompletes runs the quick chaos grid at the default rates:
// every cell must finish (no deadlock under drops), drain, and pass the
// ASVM global invariants — Chaos returns the first cell error otherwise.
func TestChaosSweepCompletes(t *testing.T) {
	var out bytes.Buffer
	if err := Chaos(&out, ChaosRates, 1, 0, true); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"fault: write fault, 1 read copy",
		"filebench write, 2 nodes",
		"filebench read, 2 nodes",
		"em3d 8000c/2n/2i",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
	if n := strings.Count(s, "fault: "); n != 3*len(ChaosRates) {
		t.Fatalf("want %d fault rows, got %d:\n%s", 3*len(ChaosRates), n, s)
	}
}

// TestChaosRecoversEveryDrop checks the ledger balances on a faulted cell:
// messages are actually being dropped, and the reliability layer retransmits
// at least once per dropped frame (acks can be dropped too, so retransmits
// can exceed drops, and every redundant delivery is suppressed).
func TestChaosRecoversEveryDrop(t *testing.T) {
	res := quickChaosRun(t, "filebench write, 2 nodes", 1, 0.01)
	if res.Dropped == 0 {
		t.Fatalf("1%% drop plan dropped nothing: %+v", res)
	}
	if res.Retransmits < res.Dropped {
		t.Fatalf("%d drops but only %d retransmits: %+v", res.Dropped, res.Retransmits, res)
	}
	if res.Duplicated > 0 && res.DupsSuppressed == 0 {
		t.Fatalf("transport duplicated %d messages, none suppressed: %+v", res.Duplicated, res)
	}
}

// TestChaosZeroRatePlanInactive pins the contract the determinism argument
// rests on: rate 0 yields an inactive plan, so the zero-fault rows measure
// only the reliability layer's own overhead.
func TestChaosZeroRatePlanInactive(t *testing.T) {
	if ChaosPlanFor(0).Active() {
		t.Fatal("ChaosPlanFor(0) must be inactive")
	}
	if !ChaosPlanFor(0.001).Active() {
		t.Fatal("ChaosPlanFor(0.001) must be active")
	}
}

// TestChaosDeterministicCells re-runs one faulted cell and requires every
// counter — including the fault-injection ones — to come back identical:
// chaos is seeded, not random.
func TestChaosDeterministicCells(t *testing.T) {
	const row = "fault: write fault, 1 read copy"
	a := quickChaosRun(t, row, 1, 0.01)
	b := quickChaosRun(t, row, 1, 0.01)
	if a != b {
		t.Fatalf("same seed, different chaos:\n a=%+v\n b=%+v", a, b)
	}
	// A different workload seed shifts the fault stream too (the fault RNG
	// is derived from the cluster seed).
	if c := quickChaosRun(t, row, 2, 0.01); a == c {
		t.Fatalf("seeds 1 and 2 produced identical chaos: %+v", a)
	}
}

// TestChaosSerialParallelByteIdentical extends the harness determinism
// regression to the chaos sweep: the rendered report must be byte-identical
// across worker counts.
func TestChaosSerialParallelByteIdentical(t *testing.T) {
	rates := []float64{0, 0.01}
	var serial bytes.Buffer
	if err := Chaos(&serial, rates, 1, 1, true); err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 8} {
		var parallel bytes.Buffer
		if err := Chaos(&parallel, rates, 1, workers, true); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
			t.Fatalf("workers=%d output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial.String(), parallel.String())
		}
	}
}

// TestChaosEM3DUnderFaults exercises the paging-pressure configuration (the
// quick grid's EM3D cell) at the sweep's heaviest rate on its own, so a
// failure here isn't buried in the full grid.
func TestChaosEM3DUnderFaults(t *testing.T) {
	res := quickChaosRun(t, "em3d 8000c/2n/2i", 1, 0.01)
	if res.Metric <= 0 || res.Msgs == 0 {
		t.Fatalf("em3d cell produced no work: %+v", res)
	}
}
