package main

import (
	"math"
	"strings"
	"testing"

	"asvm/internal/explore"
)

// TestCheckFlags: a negative budget or a coverage floor outside [0, 1] is
// rejected with an error naming the flag; zero budgets (the defaults) and
// in-range floors pass.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		walk, depth, branch, runs int
		mincover                  float64
		flag                      string // "" means accepted
	}{
		{0, 0, 0, 0, 0, ""},
		{100, 12, 3, 400, 0.25, ""},
		{0, 0, 0, 0, 1, ""},
		{-1, 0, 0, 0, 0, "-walk"},
		{0, -3, 0, 0, 0, "-depth"},
		{0, 0, -2, 0, 0, "-branch"},
		{0, 0, 0, -400, 0, "-runs"},
		{0, 0, 0, 0, -0.1, "-mincover"},
		{0, 0, 0, 0, 1.5, "-mincover"},
		{0, 0, 0, 0, math.NaN(), "-mincover"},
	}
	for _, c := range cases {
		err := checkFlags(c.walk, c.depth, c.branch, c.runs, c.mincover)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%+v rejected: %v", c, err)
		case c.flag != "" && err == nil:
			t.Errorf("%+v accepted, want an error naming %s", c, c.flag)
		case c.flag != "" && !strings.HasPrefix(err.Error(), c.flag+" "):
			t.Errorf("%+v: error %q does not name %s", c, err, c.flag)
		}
	}
}

// TestPickUnknownScenario: -scenario with a name no scenario has is an
// error naming it and listing every scenario there is; a known name picks
// exactly that scenario.
func TestPickUnknownScenario(t *testing.T) {
	_, err := pick("nosuch", false, false)
	if err == nil {
		t.Fatal("-scenario nosuch accepted")
	}
	if !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("error %q does not name the scenario", err)
	}
	names := explore.Names()
	if len(names) != len(explore.Scenarios()) {
		t.Fatalf("Names lists %d scenarios, Scenarios has %d", len(names), len(explore.Scenarios()))
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not list scenario %s", err, n)
		}
		if scs, err := pick(n, false, false); err != nil || len(scs) != 1 || scs[0].Name != n {
			t.Errorf("pick(%q) = %v, %v", n, scs, err)
		}
	}
}
