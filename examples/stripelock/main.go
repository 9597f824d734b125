// Stripelock: the paper's §6 future-work file system, assembled from the
// two extensions this library provides on top of ASVM — files striped
// round-robin across multiple I/O-node pagers, and exclusive page-range
// locks that make multi-page file writes atomic without the old NORMA-IPC
// token server.
package main

import (
	"fmt"
	"log"

	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

func main() {
	params := machine.DefaultParams(8)
	params.System = machine.SysASVM
	params.TrackData = true
	cluster := machine.New(params)

	// A 32-page file striped over two I/O nodes (0 and 4): page i is
	// backed by disk i%2.
	const filePages = 32
	users := []int{1, 2, 3}
	file, stripes, err := cluster.NewStripedFile("records", filePages, users, []int{0, 4}, false)
	if err != nil {
		log.Fatal(err)
	}

	tasks := make(map[int]*vm.Task)
	for _, n := range users {
		t, err := cluster.TaskOn(n, fmt.Sprintf("writer%d", n), file, 0)
		if err != nil {
			log.Fatal(err)
		}
		tasks[n] = t
	}

	// Two nodes append 2-page "records" concurrently. Each append locks
	// its record's page range first, so a record is never observed half
	// written — the atomic read/write guarantee §6 asks for.
	recordOf := func(writer, round int) uint64 { return uint64(writer*1000 + round) }
	done := 0
	for i, n := range []int{1, 2} {
		i, n := i, n
		cluster.Spawn("writer", func(p *sim.Proc) {
			in := cluster.ASVMs[n].Instance(file.ID)
			for round := 0; round < 4; round++ {
				lo := vm.PageIdx((i*4 + round) * 2) // disjoint 2-page records
				if err := in.AcquireRange(p, tasks[n], 0, lo, lo+2); err != nil {
					log.Fatal(err)
				}
				v := recordOf(n, round)
				if err := tasks[n].WriteU64(p, vm.Addr(lo)*vm.PageSize, v); err != nil {
					log.Fatal(err)
				}
				p.Sleep(2e6) // the window a torn write would be visible in
				if err := tasks[n].WriteU64(p, vm.Addr(lo+1)*vm.PageSize, v); err != nil {
					log.Fatal(err)
				}
				if err := in.ReleaseRange(lo, lo+2); err != nil {
					log.Fatal(err)
				}
			}
			done++
		})
	}
	// A third node audits: under the lock it must always see records whole.
	torn := 0
	cluster.Spawn("auditor", func(p *sim.Proc) {
		in := cluster.ASVMs[3].Instance(file.ID)
		for round := 0; round < 12; round++ {
			p.Sleep(5e6)
			for rec := vm.PageIdx(0); rec < 16; rec += 2 {
				if err := in.AcquireRange(p, tasks[3], 0, rec, rec+2); err != nil {
					log.Fatal(err)
				}
				a, _ := tasks[3].ReadU64(p, vm.Addr(rec)*vm.PageSize)
				b, _ := tasks[3].ReadU64(p, vm.Addr(rec+1)*vm.PageSize)
				if a != b {
					torn++
				}
				if err := in.ReleaseRange(rec, rec+2); err != nil {
					log.Fatal(err)
				}
			}
		}
	})
	cluster.Run()

	fmt.Printf("writers finished: %d/2, torn records observed: %d\n", done, torn)
	fmt.Printf("stripe 0 (node 0): %d page-ins, %d page-outs\n", stripes[0].PageIns, stripes[0].PageOuts)
	fmt.Printf("stripe 1 (node 4): %d page-ins, %d page-outs\n", stripes[1].PageIns, stripes[1].PageOuts)
	if torn == 0 && done == 2 {
		fmt.Println("\natomic striped-file records over ASVM: no token server required.")
	}
}
