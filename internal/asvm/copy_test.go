package asvm

import (
	"testing"

	"asvm/internal/sim"
	"asvm/internal/vm"
)

// forkFixture initializes a parent region on node 0 and remote-forks it to
// node 1, returning both tasks.
func forkFixture(t *testing.T, c *cluster, pages vm.PageIdx, init []uint64) (parent, child *vm.Task) {
	t.Helper()
	parent = c.kerns[0].NewTask("parent")
	region := c.kerns[0].NewAnonymous(pages)
	if _, err := parent.Map.MapObject(0, region, 0, pages, vm.ProtWrite, vm.InheritCopy); err != nil {
		t.Fatal(err)
	}
	c.run(t, func(p *sim.Proc) error {
		for i, v := range init {
			if err := parent.WriteU64(p, vm.Addr(i)*vm.PageSize, v); err != nil {
				return err
			}
		}
		var err error
		child, err = RemoteFork(c.cl(), parent, c.asvms[1], "child", DefaultConfig())
		return err
	})
	return parent, child
}

func TestPushScanCancelsSecondPush(t *testing.T) {
	// After the child pulled a page into the copy domain, the parent's
	// write must see the push scan find that owner and cancel the push.
	c := newCluster(t, 3, 0, DefaultConfig())
	parent, child := forkFixture(t, c, 4, []uint64{10})
	c.run(t, func(p *sim.Proc) error {
		// Child reads the page: it becomes owner of the page in the copy
		// domain (pull grant).
		v, err := child.ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 10 {
			t.Errorf("child read %d", v)
		}
		// Parent writes: push scan finds the child's copy-domain owner.
		if err := parent.WriteU64(p, 0, 20); err != nil {
			return err
		}
		// Child still sees the frozen value.
		v, err = child.ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 10 {
			t.Errorf("child saw %d after parent write, want 10", v)
		}
		return nil
	})
	cancelled := int64(0)
	installed := int64(0)
	for _, a := range c.asvms {
		cancelled += a.Ctr.Get("pushes_cancelled")
		installed += a.Ctr.Get("pushes_installed")
	}
	if cancelled == 0 {
		t.Fatalf("push not cancelled (cancelled=%d installed=%d)", cancelled, installed)
	}
}

func TestTwoRemoteCopiesSnapshotCorrectly(t *testing.T) {
	// Copy 1 at value 1, copy 2 at value 2, source ends at 3 — the
	// cross-node version of the asymmetric-chain snapshot semantics.
	c := newCluster(t, 3, 0, DefaultConfig())
	parent := c.kerns[0].NewTask("parent")
	region := c.kerns[0].NewAnonymous(2)
	if _, err := parent.Map.MapObject(0, region, 0, 2, vm.ProtWrite, vm.InheritCopy); err != nil {
		t.Fatal(err)
	}
	var child1, child2 *vm.Task
	c.run(t, func(p *sim.Proc) error {
		if err := parent.WriteU64(p, 0, 1); err != nil {
			return err
		}
		var err error
		child1, err = RemoteFork(c.cl(), parent, c.asvms[1], "c1", DefaultConfig())
		if err != nil {
			return err
		}
		if err := parent.WriteU64(p, 0, 2); err != nil {
			return err
		}
		child2, err = RemoteFork(c.cl(), parent, c.asvms[2], "c2", DefaultConfig())
		if err != nil {
			return err
		}
		if err := parent.WriteU64(p, 0, 3); err != nil {
			return err
		}
		v1, err := child1.ReadU64(p, 0)
		if err != nil {
			return err
		}
		v2, err := child2.ReadU64(p, 0)
		if err != nil {
			return err
		}
		pv, err := parent.ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v1 != 1 || v2 != 2 || pv != 3 {
			t.Errorf("snapshots %d/%d source %d, want 1/2/3", v1, v2, pv)
		}
		return nil
	})
}

func TestChildWritesPushBackwardsNever(t *testing.T) {
	// Child writes never reach the parent: the copy domain is downstream.
	c := newCluster(t, 2, 0, DefaultConfig())
	parent, child := forkFixture(t, c, 4, []uint64{5, 6})
	c.run(t, func(p *sim.Proc) error {
		if err := child.WriteU64(p, 0, 500); err != nil {
			return err
		}
		if err := child.WriteU64(p, vm.PageSize, 600); err != nil {
			return err
		}
		a, _ := parent.ReadU64(p, 0)
		b, _ := parent.ReadU64(p, vm.PageSize)
		if a != 5 || b != 6 {
			t.Errorf("parent saw %d/%d, want 5/6", a, b)
		}
		return nil
	})
}

func TestForkOfChildSharesGrandparentData(t *testing.T) {
	// Fork the child onward while the grandparent still holds the only
	// copy of an untouched page: the grandchild's pull walks both domains.
	c := newCluster(t, 4, 0, DefaultConfig())
	_, child := forkFixture(t, c, 4, []uint64{11, 22, 33})
	c.run(t, func(p *sim.Proc) error {
		grandchild, err := RemoteFork(c.cl(), child, c.asvms[2], "gc", DefaultConfig())
		if err != nil {
			return err
		}
		for i, want := range []uint64{11, 22, 33} {
			v, err := grandchild.ReadU64(p, vm.Addr(i)*vm.PageSize)
			if err != nil {
				return err
			}
			if v != want {
				t.Errorf("page %d = %d, want %d", i, v, want)
			}
		}
		return nil
	})
}

func TestRemoteForkSharedEntries(t *testing.T) {
	// InheritShare entries stay coherently shared across the fork.
	c := newCluster(t, 2, 0, DefaultConfig())
	parent := c.kerns[0].NewTask("parent")
	region := c.kerns[0].NewAnonymous(2)
	if _, err := parent.Map.MapObject(0, region, 0, 2, vm.ProtWrite, vm.InheritShare); err != nil {
		t.Fatal(err)
	}
	c.run(t, func(p *sim.Proc) error {
		if err := parent.WriteU64(p, 0, 1); err != nil {
			return err
		}
		child, err := RemoteFork(c.cl(), parent, c.asvms[1], "child", DefaultConfig())
		if err != nil {
			return err
		}
		if err := child.WriteU64(p, 0, 2); err != nil {
			return err
		}
		v, err := parent.ReadU64(p, 0)
		if err != nil {
			return err
		}
		if v != 2 {
			t.Errorf("shared entry lost write: %d", v)
		}
		return nil
	})
}

func TestPromoteIdempotent(t *testing.T) {
	c := newCluster(t, 2, 0, DefaultConfig())
	o := c.kerns[0].NewAnonymous(4)
	info1, err := Promote(c.asvms[0], o, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	info2, err := Promote(c.asvms[0], o, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info1 != info2 {
		t.Fatal("second promotion created a new domain")
	}
}
