package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// metricDef is one catalogue entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

// catalogue is BENCHMARK.json at the root of the checkout: the contract
// with the driver, and this program's only list of workloads, metrics,
// units and bounds. README.md explains each entry.
type catalogue struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// extras are probed only with -extras: they start other processes (the
// asvmbench CLI for code this benchmark must not import, real asvmd
// daemons) and cost tens of seconds, so they are not in BENCHMARK.json and
// the driver's runs leave them out.
var extras = []metricDef{
	{Name: "sim.lanes_speedup", Unit: "ratio", Better: "higher"},
	{Name: "exp.workers_speedup", Unit: "ratio", Better: "higher"},
	{Name: "asvmd.kv_ops_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "asvmd.kv_op_p50_us", Unit: "us", Better: "lower"},
	{Name: "asvmd.kv_ops_ratio", Unit: "ratio", Better: "higher"},
}

// units maps every catalogued metric to its unit; loadCatalogue fills it
// once at start-up.
var units = map[string]string{}

// repoRoot finds the checkout: the nearest directory at or above the
// working directory whose go.mod declares module asvm.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module asvm\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module asvm at or above the working directory")
		}
		dir = parent
	}
}

func loadCatalogue() (*catalogue, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, defs := range [][]metricDef{c.EndToEnd, c.PerLayer, extras} {
		for _, d := range defs {
			units[d.Name] = d.Unit
		}
	}
	return &c, nil
}

func (c *catalogue) workloadNames() []string {
	names := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		names[i] = w.Name
	}
	return names
}
