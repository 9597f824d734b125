package simhost

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"asvm/internal/machine"
)

// TestWorldAssemblyMallocs bounds what laying out a world and preparing
// every node allocates per (node, object) mapping: the node's join of the
// object's domain plus the task's map entry for it. A 256-node,
// 16-object world is 4,096 mappings, at about 6.3 mallocs each; re-sorting
// the map on every MapObject and keeping a region's objects in a map made
// it 9.3.
func TestWorldAssemblyMallocs(t *testing.T) {
	bi, _ := debug.ReadBuildInfo()
	if bi != nil && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	}) {
		t.Skip("-race instrumentation allocates")
	}
	const nodes, objects = 256, 16
	specs := make([]Spec, objects)
	for i := range specs {
		specs[i] = Spec{Name: fmt.Sprintf("obj%d", i), Pages: 64}
	}
	c := machine.New(machine.DefaultParams(nodes))
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC cycle mallocs for itself
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := NewWorld(c, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Prepare(allNodes(nodes)...); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / (nodes * objects)
	t.Logf("%d (node, object) mappings: %d mallocs, %.2f per mapping", nodes*objects, after.Mallocs-before.Mallocs, per)
	if per > 7.5 {
		t.Errorf("%.2f mallocs per (node, object) mapping, want <= 7.5", per)
	}
}
