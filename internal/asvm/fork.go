package asvm

import (
	"fmt"

	"asvm/internal/mesh"
	"asvm/internal/vm"
)

// This file builds cross-node delayed-copy relationships (paper §3.7,
// Figures 8/9): a remote fork first establishes a shared mapping of each
// source object on the destination node, then creates a copy *domain*
// whose local representations are spliced into every sharing node's copy
// chain. The domain's home is the destination (the copy's *peer node*),
// where pulls traverse the local shadow chain.
//
// Domain setup itself is modelled cost-free (the paper's measurements
// exclude fork setup; only the subsequent faults are timed).

// Promote turns a node-private object into a single-node ASVM domain so it
// can participate in sharing and remote copies. Resident pages become
// owned by the node, which is the home; page-outs park there in memory.
func Promote(nd *Node, o *vm.Object, cfg Config) (*DomainInfo, error) {
	if o.Mgr != nil {
		if in, ok := o.Mgr.(*Instance); ok {
			return in.info, nil // already a domain
		}
		return nil, fmt.Errorf("asvm: %v already has a foreign manager", o.ID)
	}
	info := NewDomain(o.ID, o.SizePages, nd.Self, []mesh.NodeID{nd.Self}, cfg)
	AddNode(info, nd)
	return info, nil
}

// domainOf returns the ASVM domain backing an object, or nil.
func domainOf(o *vm.Object) *DomainInfo {
	if in, ok := o.Mgr.(*Instance); ok {
		return in.info
	}
	return nil
}

// ensureSharing extends a domain (and its whole copy chain) to a node.
func ensureSharing(cluster Cluster, info *DomainInfo, nd *Node) *Instance {
	in := AddNode(info, nd)
	// The node needs local representations of every copy domain so that
	// pushes it may later perform as an owner have somewhere to land.
	src := nd.K.Object(info.ID)
	for cur := info; cur.Copy != nil; cur = cur.Copy {
		cIn := AddNode(cur.Copy, nd)
		cObj := cIn.o
		if src.Copy != cObj {
			nd.K.LinkCopy(src, cObj)
		}
		src = cObj
	}
	return in
}

// CopyDomain creates a copy domain of src on peer (the node performing the
// copy) and splices local copy objects into every sharing node's chain.
// Returns the new domain.
func CopyDomain(cluster Cluster, src *DomainInfo, peer *Node) *DomainInfo {
	c := NewDomain(peer.K.NextID(), src.SizePages, peer.Self, src.Mapping, src.Cfg)
	c.Source = src
	for _, nid := range src.Mapping {
		nd := cluster.node(nid)
		cIn := AddNode(c, nd)
		sObj := nd.K.Object(src.ID)
		nd.K.LinkCopy(sObj, cIn.o)
	}
	src.Copy = c
	src.Version++
	// Mark all resident source pages read-only everywhere: the next write
	// anywhere must fault and push (Figure 8).
	for _, nid := range src.Mapping {
		nd := cluster.node(nid)
		sObj := nd.K.Object(src.ID)
		for idx, pg := range sObj.Pages {
			if pg != nil {
				nd.K.LockRequest(sObj, vm.PageIdx(idx), vm.ProtRead, false, nil)
			}
		}
	}
	return c
}

// RemoteFork creates a child task on dst whose address space inherits
// parent's (on its own node) with ASVM delayed-copy semantics: shared
// entries map the same domain; copy entries map a fresh copy domain whose
// peer is dst. Plain anonymous entries are promoted to domains first.
func RemoteFork(cluster Cluster, parent *vm.Task, dst *Node, childName string, cfg Config) (*vm.Task, error) {
	child := dst.K.NewTask(childName)
	for _, e := range parent.Map.Entries() {
		switch e.Inherit {
		case vm.InheritNone:
			continue
		case vm.InheritShare:
			info := domainOf(e.Object)
			if info == nil {
				src := cluster.node(parent.Kernel.Node)
				var err error
				info, err = Promote(src, e.Object, cfg)
				if err != nil {
					return nil, err
				}
			}
			in := ensureSharing(cluster, info, dst)
			if _, err := child.Map.MapObject(e.Start, in.o, e.OffsetPages, e.Pages(), e.MaxProt, e.Inherit); err != nil {
				return nil, err
			}
		case vm.InheritCopy:
			info := domainOf(e.Object)
			if info == nil {
				src := cluster.node(parent.Kernel.Node)
				var err error
				info, err = Promote(src, e.Object, cfg)
				if err != nil {
					return nil, err
				}
			}
			ensureSharing(cluster, info, dst)
			c := CopyDomain(cluster, info, dst)
			cObj := dst.K.Object(c.ID)
			if _, err := child.Map.MapObject(e.Start, cObj, e.OffsetPages, e.Pages(), e.MaxProt, e.Inherit); err != nil {
				return nil, err
			}
		}
	}
	return child, nil
}
