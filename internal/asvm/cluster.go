package asvm

import (
	"fmt"

	"asvm/internal/mesh"
)

// Cluster is a dense node directory indexed by mesh.NodeID — the O(1)
// replacement for the `[]*Node` + nodeByID linear-scan idiom that every
// cross-node operation (fork plumbing, crash recovery, invariant sweeps)
// used to pay per lookup. Build it once per assembled machine
// (or test cluster) with NewCluster; every lookup after that is a slice
// index. Test clusters that run ASVM runtimes on a subset of the hardware
// nodes leave nil gaps, which ByID reports as absent.
type Cluster struct {
	byID []*Node
}

// NewCluster indexes nodes by their NodeID. A duplicate ID is a
// construction bug and panics.
func NewCluster(nodes []*Node) Cluster {
	maxID := -1
	for _, n := range nodes {
		if int(n.Self) > maxID {
			maxID = int(n.Self)
		}
	}
	byID := make([]*Node, maxID+1)
	for _, n := range nodes {
		if byID[n.Self] != nil {
			panic(fmt.Sprintf("asvm: duplicate node %d in cluster", n.Self))
		}
		byID[n.Self] = n
	}
	return Cluster{byID: byID}
}

// ByID returns the runtime for a node, or nil when the ID has no ASVM
// runtime in this cluster.
func (c Cluster) ByID(id mesh.NodeID) *Node {
	if int(id) < 0 || int(id) >= len(c.byID) {
		return nil
	}
	return c.byID[id]
}

// node is ByID for IDs that must exist: a mapping-ring member without a
// runtime here is a construction bug.
func (c Cluster) node(id mesh.NodeID) *Node {
	n := c.ByID(id)
	if n == nil {
		panic(fmt.Sprintf("asvm: node %d not in cluster", id))
	}
	return n
}
