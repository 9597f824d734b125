package machine

import (
	"fmt"
	"io"
	"sort"
)

// StatsReport writes a cluster-wide view of the run: kernel fault
// statistics, protocol counters aggregated across nodes, transport and
// interconnect traffic, message-processor utilization and disk activity.
// This is the system/application-level monitoring interface the paper's
// §6 alludes to; the per-counter semantics live next to the sites that bump
// them.
func (c *Cluster) StatsReport(w io.Writer) {
	fmt.Fprintf(w, "=== cluster statistics (%v, %d nodes, t=%v) ===\n",
		c.P.System, c.P.Nodes, c.Eng.Now())

	// Aggregate kernel counters.
	kern := map[string]int64{}
	for _, k := range c.Kerns {
		k.Ctr.AddTo(kern)
	}
	fmt.Fprintln(w, "kernel:")
	writeCounterMap(w, kern)

	// Aggregate protocol counters.
	proto := map[string]int64{}
	switch c.P.System {
	case SysASVM:
		for _, a := range c.ASVMs {
			a.Ctr.AddTo(proto)
		}
	case SysXMM:
		for _, x := range c.XMMs {
			x.Ctr.AddTo(proto)
		}
	}
	fmt.Fprintf(w, "%v protocol:\n", c.P.System)
	writeCounterMap(w, proto)

	fmt.Fprintln(w, "transport:")
	fmt.Fprintf(w, "  sts:   %d msgs (%d with pages), %d bytes\n",
		c.STSTR.Msgs, c.STSTR.PageMsgs, c.STSTR.Bytes)
	fmt.Fprintf(w, "  norma: %d msgs, %d bytes\n", c.NormaTR.Msgs, c.NormaTR.Bytes)
	fmt.Fprintf(w, "  mesh:  %d packets, %d bytes\n", c.Net.Stats.Messages, c.Net.Stats.Bytes)

	// Busiest message processors (the contention points).
	type load struct {
		node int
		util float64
	}
	loads := make([]load, 0, len(c.HW))
	for i, hw := range c.HW {
		loads = append(loads, load{i, hw.MsgProc.Utilization()})
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].util > loads[j].util })
	fmt.Fprintln(w, "busiest message processors:")
	for i := 0; i < len(loads) && i < 4; i++ {
		fmt.Fprintf(w, "  node %d: %.1f%% busy\n", loads[i].node, 100*loads[i].util)
	}

	for i, hw := range c.HW {
		if hw.Disk == nil {
			continue
		}
		fmt.Fprintf(w, "disk %d: %d reads (%d KB), %d writes (%d KB)\n",
			i, hw.Disk.Reads, hw.Disk.BytesRead/1024, hw.Disk.Writes, hw.Disk.BytesWritten/1024)
	}

	// Memory occupancy.
	resident := 0
	for _, k := range c.Kerns {
		resident += k.Mem.ResidentPages
	}
	fmt.Fprintf(w, "resident pages cluster-wide: %d\n", resident)
}

func writeCounterMap(w io.Writer, m map[string]int64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-24s %d\n", name, m[name])
	}
}
