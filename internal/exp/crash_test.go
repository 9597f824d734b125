package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestCrashSweepQuick runs the full quick grid once and checks the
// degradation contract cell by cell: the crash-free cell is perfectly
// clean, every crashed cell records its executed fates, and nothing
// panics or corrupts survivor state (runChaos invariant-checks each
// drained cluster internally).
func TestCrashSweepQuick(t *testing.T) {
	cells := CrashCells()
	results, err := RunCrashCells(cells, 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	var base float64
	for i, cell := range cells {
		r := results[i]
		if cell.Crashed == 0 {
			if cell.Rate == 0 {
				base = r.Metric
				if got := float64(6 * 80); r.Metric != got {
					t.Errorf("crash-free cell completed %v ops, want all %v", r.Metric, got)
				}
			}
			if r.Crashes != 0 || r.Restarts != 0 || r.PeersDowned != 0 ||
				r.FaultsAborted != 0 || r.FaultRedrives != 0 || r.OwnershipLost != 0 ||
				r.PagesLost != 0 || r.CopiesDropped != 0 || r.HintEvictions != 0 {
				t.Errorf("crash-free cell (drop=%v) shows degradation: %+v", cell.Rate, r)
			}
			continue
		}
		if r.Crashes != cell.Crashed {
			t.Errorf("cell %+v: executed %d crashes, want %d", cell, r.Crashes, cell.Crashed)
		}
		wantRestarts := 0
		if cell.Restart {
			wantRestarts = cell.Crashed
		}
		if r.Restarts != wantRestarts {
			t.Errorf("cell %+v: executed %d restarts, want %d", cell, r.Restarts, wantRestarts)
		}
		// PeersDowned counts only organic retransmit-exhaustion verdicts;
		// planned crashes use the immediate MarkPeerDown path, so the
		// evidence of degradation is in the protocol counters instead.
		if r.FaultsAborted+r.FaultRedrives+r.OwnershipLost+r.CopiesDropped+r.HintEvictions == 0 {
			t.Errorf("cell %+v: crashes executed but no degradation recorded: %+v", cell, r)
		}
		if r.Metric >= base {
			t.Errorf("cell %+v: %v ops, expected degradation below crash-free %v", cell, r.Metric, base)
		}
		if r.Metric == 0 {
			t.Errorf("cell %+v: survivors made no progress at all", cell)
		}
	}
}

// TestCrashSweepWorkersDeterministic pins the sweep's ledger and counters
// to be byte-identical regardless of the -workers split.
func TestCrashSweepWorkersDeterministic(t *testing.T) {
	cells := []CrashCell{
		{Crashed: 1, Rate: 0.01},
		{Crashed: 2, Rate: 0},
		{Crashed: 1, Restart: true, Rate: 0.01},
	}
	seq, err := RunCrashCells(cells, 7, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCrashCells(cells, 7, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep differs across worker counts:\n workers=1: %+v\n workers=3: %+v", seq, par)
	}
}

// TestCrashReport smoke-tests the rendered table.
func TestCrashReport(t *testing.T) {
	var buf bytes.Buffer
	if err := Crash(&buf, 1, 2, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Crash sweep", "crashed", "ownlost", "vs 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCrashCellRestartRecovers pins the restart path end to end at the
// workload level: with a restart planned, the crashed node's proc rejoins
// cold and completes additional work, and the run still drains clean.
func TestCrashCellRestartRecovers(t *testing.T) {
	seed := uint64(3)
	cfgPerm := crashConfigFor(CrashCell{Crashed: 1}, seed, true)
	cfgRest := crashConfigFor(CrashCell{Crashed: 1, Restart: true}, seed, true)
	perm, err := runCrash(cfgPerm, ChaosPlanFor(0))
	if err != nil {
		t.Fatal(err)
	}
	rest, err := runCrash(cfgRest, ChaosPlanFor(0))
	if err != nil {
		t.Fatal(err)
	}
	if rest.Restarts != 1 || perm.Restarts != 0 {
		t.Fatalf("restarts: perm=%d rest=%d", perm.Restarts, rest.Restarts)
	}
	if rest.Metric <= perm.Metric {
		t.Errorf("restarted cell completed %v ops, permanent %v; rejoin should recover work",
			rest.Metric, perm.Metric)
	}
}

// TestCrashChurnHomeDeath kills the region's home (node 0) mid-run, for
// good and with a restart, on a clean and a lossy wire. A permanent home
// death turns every fault that needs the home into a typed abort; a
// restarted home rebuilds its grant ledger, and the drained cluster must
// pass the invariants either way — ownership that was in flight when the
// home came back included.
func TestCrashChurnHomeDeath(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, rate := range CrashDropRates {
			for _, restart := range []time.Duration{0, 6 * time.Millisecond} {
				cfg := defaultCrash(6, 0, seed)
				cfg.Rounds = 80
				cfg.Crashed = []int{0}
				cfg.RestartAfter = restart
				res, err := runCrash(cfg, ChaosPlanFor(rate))
				if err != nil {
					t.Errorf("seed %d drop %.2f restart %v: %v", seed, rate, restart, err)
					continue
				}
				if res.Crashes != 1 {
					t.Errorf("seed %d drop %.2f restart %v: %d crashes executed, want 1", seed, rate, restart, res.Crashes)
				}
				if restart == 0 && res.FaultsAborted == 0 {
					t.Errorf("seed %d drop %.2f: the home died for good but no fault aborted", seed, rate)
				}
				t.Logf("seed %d drop %.2f restart %v: ops %v aborted %d ownlost %d", seed, rate, restart, res.Metric, res.FaultsAborted, res.OwnershipLost)
			}
		}
	}
}
