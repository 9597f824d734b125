package exp

import (
	"fmt"
	"time"

	"asvm/internal/app"
	"asvm/internal/app/simhost"
	"asvm/internal/machine"
	"asvm/internal/vm"
)

// fileBenchBytes is the benchmark file size (paper §4.2: 4 MB).
const fileBenchBytes = 4 << 20

// fileBenchPages is the file size in pages.
const fileBenchPages = fileBenchBytes / vm.PageSize

// fileClusterSize returns the node count a cluster running a file
// benchmark for nNodes active clients must have: one extra, so the I/O
// node (node 0) stays off the clients.
func fileClusterSize(nNodes int) int { return nNodes + 1 }

// fileUsers checks c against the size contract and returns the client node
// indices 1..nNodes.
func fileUsers(c *machine.Cluster, nNodes int) ([]int, error) {
	if nNodes < 1 {
		return nil, fmt.Errorf("exp: file benchmark needs at least 1 client, got %d", nNodes)
	}
	if err := checkNodes(c, fileClusterSize(nNodes)); err != nil {
		return nil, err
	}
	users := make([]int, nNodes)
	for i := range users {
		users[i] = i + 1
	}
	return users, nil
}

// fileWriteRate reproduces Table 2's write rows on c, which must have
// fileClusterSize(nNodes) nodes: nNodes map the same (initially empty) 4 MB
// file and each writes a disjoint section using asynchronous writes (dirty
// pages are not forced out). Returned is the mean per-node effective
// transfer rate in MB/s and the file region.
func fileWriteRate(c *machine.Cluster, nNodes int) (float64, *machine.Region, error) {
	users, err := fileUsers(c, nNodes)
	if err != nil {
		return 0, nil, err
	}
	w, err := simhost.NewWorld(c, []simhost.Spec{
		{Name: "bench", Pages: fileBenchPages, Nodes: users, File: true},
	})
	if err != nil {
		return 0, nil, err
	}
	if err := w.Prepare(users...); err != nil {
		return 0, nil, err
	}

	perNode := fileBenchPages / nNodes
	times := make([]time.Duration, nNodes)
	for i, nIdx := range users {
		i := i
		w.GoOn(nIdx, "writer", func(h app.Host) error {
			t0 := h.Now()
			base := i * perNode
			for pg := 0; pg < perNode; pg++ {
				if err := h.Write(0, int64((base+pg)*vm.PageSize), 0); err != nil {
					return err
				}
			}
			times[i] = h.Now() - t0
			return nil
		})
	}
	if err := w.Run(); err != nil {
		return 0, nil, err
	}
	var sumRate float64
	for i := range times {
		if times[i] == 0 {
			return 0, nil, fmt.Errorf("exp: writer %d made no progress", i)
		}
		bytes := float64(perNode * vm.PageSize)
		sumRate += bytes / times[i].Seconds() / 1e6
	}
	return sumRate / float64(nNodes), w.Region(0), nil
}

// fileReadRate reproduces Table 2's read rows on c, which must have
// fileClusterSize(nNodes) nodes: nNodes read the entire preloaded 4 MB file
// in parallel. Returned is the mean per-node rate in MB/s and the file
// region.
func fileReadRate(c *machine.Cluster, nNodes int) (float64, *machine.Region, error) {
	users, err := fileUsers(c, nNodes)
	if err != nil {
		return 0, nil, err
	}
	w, err := simhost.NewWorld(c, []simhost.Spec{
		{Name: "bench", Pages: fileBenchPages, Nodes: users, File: true, Preload: true},
	})
	if err != nil {
		return 0, nil, err
	}
	if err := w.Prepare(users...); err != nil {
		return 0, nil, err
	}

	times := make([]time.Duration, nNodes)
	for i, nIdx := range users {
		i := i
		w.GoOn(nIdx, "reader", func(h app.Host) error {
			t0 := h.Now()
			// Stagger starting offsets so nodes don't convoy on the same
			// page, like independent readers would.
			start := (i * fileBenchPages) / nNodes
			for k := 0; k < fileBenchPages; k++ {
				pg := (start + k) % fileBenchPages
				if _, err := h.Read(0, int64(pg*vm.PageSize)); err != nil {
					return err
				}
			}
			times[i] = h.Now() - t0
			return nil
		})
	}
	if err := w.Run(); err != nil {
		return 0, nil, err
	}
	var sumRate float64
	for i := range times {
		if times[i] == 0 {
			return 0, nil, fmt.Errorf("exp: reader %d made no progress", i)
		}
		sumRate += float64(fileBenchBytes) / times[i].Seconds() / 1e6
	}
	return sumRate / float64(nNodes), w.Region(0), nil
}
