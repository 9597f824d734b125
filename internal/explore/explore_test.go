package explore

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"asvm/internal/asvm"
	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// dropXferReaders re-plants the classic lost-reader-list bug: an ownership
// transfer that forgets the old owner's reader list (asvm.Node.Hooks).
func dropXferReaders(c *machine.Cluster) {
	for _, nd := range c.ASVMs {
		nd.Hooks.DropXferReaders = true
	}
}

// TestMutationDFSFindsPlantedBug proves the whole pipeline end to end:
// plant a protocol bug, have DFS find it, shrink the reproducer, and show
// the reproducer both replays the failure and is specific to the bug.
func TestMutationDFSFindsPlantedBug(t *testing.T) {
	sc := Lookup("xfer-evict")
	if sc == nil {
		t.Fatal("scenario xfer-evict missing")
	}
	r := DFS(sc, DFSOptions{MaxChoices: 8, MaxRuns: 400}, dropXferReaders)
	if r.V == nil {
		t.Fatalf("planted reader-list bug not found in %d schedules", r.Runs)
	}
	if r.V.Kind != "invariant" {
		t.Errorf("violation kind = %q, want invariant (err: %v)", r.V.Kind, r.V.Err)
	}
	if len(r.Reproducer) > 12 {
		t.Errorf("shrunk reproducer has %d choices, want <= 12 (%s)",
			len(r.Reproducer), EncodeChoices(r.Reproducer))
	}
	rep := Replay(sc, r.Reproducer, dropXferReaders)
	if rep.V == nil {
		t.Fatal("shrunk reproducer does not replay the violation")
	}
	// The reproducer captures the bug, not a scenario quirk: without the
	// mutation the identical schedule must be clean.
	if clean := Replay(sc, r.Reproducer, nil); clean.V != nil {
		t.Errorf("reproducer fails without the planted bug: %v", clean.V)
	}
}

// TestWalkFindsPlantedBug checks the random-walk driver reaches the same
// planted bug.
func TestWalkFindsPlantedBug(t *testing.T) {
	sc := Lookup("xfer-evict")
	r := Walk(sc, 100, 1, dropXferReaders)
	if r.V == nil {
		t.Fatalf("planted bug not found in %d random schedules", r.Runs)
	}
	if rep := Replay(sc, r.Reproducer, dropXferReaders); rep.V == nil {
		t.Error("walk reproducer does not replay the violation")
	}
}

// TestReplayBitIdentical pins the reproducibility contract: replaying one
// choice string twice yields identical recorded traces, and a violation
// renders identically.
func TestReplayBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		sc     string
		ks     []int
		mutate Mutate
	}{
		{"rw2", nil, nil},
		{"rw2", []int{1, 0, 2, 1}, nil},
		{"ring4", []int{0, 1, 1, 0, 2}, nil},
		{"xfer-evict", nil, dropXferReaders},
	} {
		sc := Lookup(tc.sc)
		a := Replay(sc, tc.ks, tc.mutate)
		b := Replay(sc, tc.ks, tc.mutate)
		if !reflect.DeepEqual(a.Choices, b.Choices) {
			t.Errorf("%s %v: replays diverged: %d vs %d choice points",
				tc.sc, tc.ks, len(a.Choices), len(b.Choices))
		}
		if (a.V == nil) != (b.V == nil) {
			t.Fatalf("%s %v: one replay failed, the other did not", tc.sc, tc.ks)
		}
		if a.V != nil && a.V.String() != b.V.String() {
			t.Errorf("%s %v: violations differ:\n  %v\n  %v", tc.sc, tc.ks, a.V, b.V)
		}
	}
}

// TestScenariosCleanUnderExploration is the in-tree smoke: every scenario
// survives a short walk and every bounded scenario a shallow DFS.
func TestScenariosCleanUnderExploration(t *testing.T) {
	for _, sc := range BoundedScenarios() {
		if r := DFS(sc, DFSOptions{MaxChoices: 6, MaxRuns: 120}, nil); r.V != nil {
			t.Errorf("dfs %s: %v", sc.Name, r.V)
		}
	}
	for _, sc := range Scenarios() {
		if r := Walk(sc, 40, 7, nil); r.V != nil {
			t.Errorf("walk %s: %v", sc.Name, r.V)
		}
	}
}

// TestStaleGrantRegression replays the schedule that exposed the real
// grant-vs-invalidation race the explorer found (an invalidation overtaking
// an in-flight read grant left a copy unknown to the new owner). The
// committed reproducer must stay clean forever.
func TestStaleGrantRegression(t *testing.T) {
	name, ks, err := LoadReproducer(filepath.Join("testdata", "stale-grant.repro"))
	if err != nil {
		t.Fatal(err)
	}
	sc := Lookup(name)
	if sc == nil {
		t.Fatalf("reproducer names unknown scenario %q", name)
	}
	if out := Replay(sc, ks, nil); out.V != nil {
		t.Errorf("stale-grant schedule regressed: %v", out.V)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, ks := range [][]int{nil, {0}, {1, 0, 3}, {35, 0, 12, 7}, {0, 0, 0}} {
		enc := EncodeChoices(ks)
		dec, err := DecodeChoices(enc)
		if err != nil {
			t.Fatalf("DecodeChoices(%q): %v", enc, err)
		}
		if len(ks) == 0 && len(dec) == 0 {
			continue
		}
		if !reflect.DeepEqual(dec, ks) {
			t.Errorf("roundtrip %v -> %q -> %v", ks, enc, dec)
		}
	}
	if got := EncodeChoices(nil); got != "-" {
		t.Errorf("EncodeChoices(nil) = %q, want \"-\"", got)
	}
	if _, err := DecodeChoices("10!2"); err == nil {
		t.Error("DecodeChoices accepted an invalid digit")
	}
}

func TestReproducerFileRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.repro")
	ks := []int{2, 0, 1, 4}
	if err := WriteReproducer(path, "rw2", ks); err != nil {
		t.Fatal(err)
	}
	name, got, err := LoadReproducer(path)
	if err != nil {
		t.Fatal(err)
	}
	if name != "rw2" || !reflect.DeepEqual(got, ks) {
		t.Errorf("roundtrip = (%q, %v), want (rw2, %v)", name, got, ks)
	}
}

// TestShrinkPreservesFailure: shrinking output is always validated by
// replay, so a shrunk trace still fails and is no longer than the input.
func TestShrinkPreservesFailure(t *testing.T) {
	sc := Lookup("xfer-evict")
	out := Replay(sc, nil, dropXferReaders)
	if out.V == nil {
		t.Skip("default schedule does not trip the planted bug on this scenario")
	}
	full := Ks(out.Choices)
	shrunk := Shrink(sc, full, dropXferReaders)
	if len(shrunk) > len(full) {
		t.Errorf("shrink grew the trace: %d -> %d", len(full), len(shrunk))
	}
	if rep := Replay(sc, shrunk, dropXferReaders); rep.V == nil {
		t.Errorf("shrunk trace %s no longer fails", EncodeChoices(shrunk))
	}
}

// TestExplorationReportsCoverage pins the coverage plumbing: a campaign
// over any scenario must exercise protocol transitions and report them,
// and single-run outcomes must carry per-run coverage that the campaign
// totals dominate.
func TestExplorationReportsCoverage(t *testing.T) {
	sc := Lookup("rw2")
	if sc == nil {
		t.Fatal("scenario rw2 missing")
	}
	w := Walk(sc, 20, 7, nil)
	hit, legal := w.Cover.Exercised()
	if hit == 0 {
		t.Fatal("walk campaign exercised zero transitions")
	}
	if hit > legal {
		t.Fatalf("hit %d > legal %d", hit, legal)
	}
	d := DFS(sc, DFSOptions{MaxChoices: 4, MaxRuns: 40}, nil)
	if dh, _ := d.Cover.Exercised(); dh == 0 {
		t.Fatal("dfs campaign exercised zero transitions")
	}
	one := Replay(sc, nil, nil)
	oh, _ := one.Cover.Exercised()
	if oh == 0 {
		t.Fatal("single replay exercised zero transitions")
	}
	// The default schedule is one of the walk's sampled schedules' peers:
	// each cell the replay exercised at least exists in the same table.
	for s := range one.Cover {
		for e := range one.Cover[s] {
			if one.Cover[s][e] > 0 && !asvm.TransitionLegal(asvm.PageProtoState(s), asvm.ProtoEvent(e)) {
				t.Fatalf("coverage recorded on illegal cell %d×%d", s, e)
			}
		}
	}
}

// rw2With is the rw2 scenario with one extra step run by node 1's worker,
// on its proc, after its first write.
func rw2With(name string, extra func(c *machine.Cluster, p *sim.Proc)) *Scenario {
	return &Scenario{
		Name:    name,
		Bounded: true,
		Params:  func() machine.Params { return smallParams(2) },
		Run: func(c *machine.Cluster, fail func(error)) []*machine.Region {
			r := c.NewSharedRegion(name, 1, []int{0, 1})
			for n := 0; n < 2; n++ {
				n := n
				worker(c, fail, n, r, func(p *sim.Proc, t *vm.Task) error {
					if err := t.WriteU64(p, addr(0, n), uint64(n)); err != nil {
						return err
					}
					if n == 1 {
						extra(c, p)
					}
					_, err := t.ReadU64(p, addr(0, 1-n))
					return err
				})
			}
			return []*machine.Region{r}
		},
	}
}

// TestProcPanicIsAFinding: a panic raised on a proc's stack — here from
// workload code, in the field from an illegal (state, event) under
// Kernel.Fault — comes back as an Outcome of kind "panic" carrying the
// choice string that reproduces it. It must not take the process down,
// which it did while procs were goroutines of their own.
func TestProcPanicIsAFinding(t *testing.T) {
	sc := rw2With("panic2", func(*machine.Cluster, *sim.Proc) { panic("workload bug") })
	ks := []int{1, 0, 1}
	out := Replay(sc, ks, nil)
	if out.V == nil {
		t.Fatal("a panicking proc produced a clean outcome")
	}
	if out.V.Kind != "panic" {
		t.Fatalf("violation kind = %q, want panic (err: %v)", out.V.Kind, out.V.Err)
	}
	if !strings.Contains(out.V.Err.Error(), "workload bug") {
		t.Errorf("finding lost the panic value: %v", out.V.Err)
	}
	got := Ks(out.V.Choices)
	if len(got) < len(ks) || !reflect.DeepEqual(got[:len(ks)], ks) {
		t.Errorf("choice trace %v does not extend the replayed prefix %v", got, ks)
	}
	if !strings.Contains(out.V.String(), "[choices "+EncodeChoices(got)+"]") {
		t.Errorf("violation does not print its choice string: %v", out.V)
	}
	if again := Replay(sc, got, nil); again.V == nil || again.V.String() != out.V.String() {
		t.Errorf("the choice string does not reproduce the finding:\n  %v\n  %v", out.V, again.V)
	}
	// The drivers fold it in the same way.
	if r := Walk(sc, 5, 1, nil); r.V == nil || r.V.Kind != "panic" {
		t.Errorf("walk over a panicking scenario: %v", r.V)
	}
}

// TestDeadlockedRunsLeakNoGoroutines: a run that ends with procs parked for
// good reports the deadlock and then unwinds them. 200 such runs leave the
// goroutine count where it started; before KillProcs each run abandoned its
// parked procs — and through their stacks its whole cluster — forever.
func TestDeadlockedRunsLeakNoGoroutines(t *testing.T) {
	sc := rw2With("deadlock2", func(c *machine.Cluster, p *sim.Proc) {
		sim.NewFuture(c.Eng).Wait(p) // nobody ever completes it
	})
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		out := Replay(sc, []int{i % 2}, nil)
		if out.V == nil || out.V.Kind != "deadlock" {
			t.Fatalf("run %d: outcome %v, want a deadlock finding", i, out.V)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d over 200 deadlocked runs", before, after)
	}
}
