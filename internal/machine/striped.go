package machine

import (
	"fmt"

	"asvm/internal/asvm"
	"asvm/internal/mesh"
	"asvm/internal/pager"
	"asvm/internal/vm"
	"asvm/internal/xmm"
)

// NewStripedFile creates a mapped file striped round-robin across several
// I/O nodes — the paper's §6 future-work file system that combines PFS
// striping with UFS-style mapped-file caching. Each stripe node gets a
// disk (if it lacks one) and a pager server; page i is backed by stripe
// i % len(stripeNodes). The distribution layer at the region's home talks
// to all stripes through one round-robin PagerIO.
func (c *Cluster) NewStripedFile(name string, sizePages vm.PageIdx, nodeIdxs, stripeNodes []int, preload bool) (*Region, []*pager.Server, error) {
	if len(stripeNodes) == 0 {
		return nil, nil, fmt.Errorf("machine: striped file needs stripe nodes")
	}
	home := nodeIdxs[0]
	id := c.nextID(mesh.NodeID(home))

	servers := make([]*pager.Server, len(stripeNodes))
	for i, sn := range stripeNodes {
		if c.HW[sn].Disk == nil {
			c.HW[sn].AttachDisk(c.Eng, DiskSeek, DiskBytesPerSecond).SetWriteSeek(DiskWriteSeek)
		}
		servers[i] = pager.NewServer(c.Eng, c.TR, mesh.NodeID(sn), c.HW[sn].Disk,
			c.P.Pager, fmt.Sprintf("stripe%d-%s", i, name), c.P.TrackData)
		servers[i].CacheInMemory = true
	}
	if preload {
		for pg := vm.PageIdx(0); pg < sizePages; pg++ {
			servers[int(pg)%len(servers)].Preload(id, pg, nil)
		}
	}

	r := &Region{
		Name: name, SizePages: sizePages, ID: id, Home: home,
		Nodes: append([]int(nil), nodeIdxs...),
		objs:  make(map[int]*vm.Object),
	}
	striped := pager.NewStriped(c.Eng, c.TR, mesh.NodeID(home), servers)
	switch c.P.System {
	case SysASVM:
		nodes := make([]*asvm.Node, len(nodeIdxs))
		for i, n := range nodeIdxs {
			nodes[i] = c.ASVMs[n]
		}
		info, objs := asvm.Setup(id, sizePages, nodes, 0, nil, c.P.ASVM)
		r.info = info
		for i, n := range nodeIdxs {
			r.objs[n] = objs[i]
		}
		c.ASVMs[home].Instance(id).SetPager(striped)
	case SysXMM:
		nodes := make([]*xmm.Node, len(nodeIdxs))
		for i, n := range nodeIdxs {
			nodes[i] = c.XMMs[n]
		}
		objs := xmm.SetupShared(id, sizePages, nodes, 0, nil)
		for i, n := range nodeIdxs {
			r.objs[n] = objs[i]
		}
		c.XMMs[home].SetManagerPager(id, striped)
	}
	return r, servers, nil
}
