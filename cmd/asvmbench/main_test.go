package main

import (
	"strings"
	"testing"
)

// TestPickAcceptsEverySelector: every name -list prints selects at least
// one experiment, and "all" selects exactly the catalogue's in-all entries.
func TestPickAcceptsEverySelector(t *testing.T) {
	for _, sel := range selectors() {
		exps, err := pick(sel)
		if err != nil || len(exps) == 0 {
			t.Errorf("pick(%q) = %d experiments, %v", sel, len(exps), err)
		}
	}
	all, _ := pick("all")
	n := 0
	for _, e := range catalogue {
		if e.inAll {
			n++
		}
	}
	if len(all) != n {
		t.Errorf("pick(all) = %d experiments, want the %d in-all entries", len(all), n)
	}
}

// TestPickRejectsUnknownNames: an unknown selector is an error, and the
// error — the CLI's usage message — names every valid selector.
func TestPickRejectsUnknownNames(t *testing.T) {
	for _, bad := range []string{"", "tabel1", "table4", "ALL", "chaos ", "figure10", "ablation-transport"} {
		exps, err := pick(bad)
		if err == nil {
			t.Errorf("pick(%q) = %d experiments, want error", bad, len(exps))
			continue
		}
		for _, sel := range selectors() {
			if !strings.Contains(err.Error(), sel) {
				t.Errorf("pick(%q) error %q does not mention %q", bad, err, sel)
			}
		}
	}
}
