package main

import (
	"math"
	"strings"
	"testing"
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
