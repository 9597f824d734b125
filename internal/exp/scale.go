package exp

import (
	"fmt"
	"io"
	"time"

	"asvm/internal/app"
	"asvm/internal/app/simhost"
	"asvm/internal/asvm"
	"asvm/internal/machine"
	"asvm/internal/sim"
	"asvm/internal/vm"
)

// This file is the scale-out scenario generator: seeded 64–1024-node cells
// with many concurrent shared objects, zipf-skewed access, per-node
// open/close churn and mixed read/write tenants, run through the machine
// layer with per-cell invariant checks and a forwarding-cost ledger. It is
// the workload the O(1) membership work exists for: nothing here may scan
// a node list on the protocol path.

// ScaleCell describes one scale cell: the machine, the object population,
// the access skew, and the churn/tenant knobs. Everything is derived from
// Seed — two runs of the same cell produce identical simulated metrics.
type ScaleCell struct {
	Nodes           int     // machine size
	Objects         int     // concurrent shared objects
	PagesPerObject  int     // pages per object
	OpsPerNode      int     // touches each node performs
	ZipfSkew        float64 // object-popularity exponent (s=1: classic skew)
	ChurnEvery      int     // close+reopen an object every N touches (0: never)
	OpenObjects     int     // objects each node starts with open
	DynCacheSize    int     // dynamic hint cache entries (0: default)
	StaticCacheSize int     // static manager cache entries (0: default)
	HopBound        int     // forwarding hop bound (0: legacy 2*ring+8)
	SamplePages     int     // >0: sampled invariant sweep (big meshes)
	Seed            uint64
}

// ScaleOpKind classifies a generated operation.
type ScaleOpKind uint8

// The generator's op alphabet. Open/Close model a tenant attaching to and
// detaching from an object (mappings are set up front, so they cost
// nothing in simulation — they gate which objects the node may touch);
// Touch is a page access that can fault.
const (
	OpOpen ScaleOpKind = iota
	OpClose
	OpTouch
)

// ScaleOp is one generated operation.
type ScaleOp struct {
	Kind  ScaleOpKind
	Obj   int
	Page  int  // touches only
	Write bool // touches only
}

// scaleSeedSalt spreads per-node generator streams across the RNG space
// (golden-ratio multiplier, the usual hash constant).
const scaleSeedSalt = 0x9E3779B97F4A7C15

// scaleWriteFrac is the per-tenant write mix: node index mod 4 picks the
// tenant class — balanced, read-mostly, write-heavy, read-only.
func scaleWriteFrac(node int) float64 {
	switch node % 4 {
	case 0:
		return 0.5
	case 1:
		return 0.1
	case 2:
		return 0.9
	default:
		return 0
	}
}

// GenScaleOps deterministically generates one node's operation stream: an
// initial burst of opens, then zipf-skewed touches over the currently open
// objects, with a close+reopen churn pair every ChurnEvery touches. The
// stream obeys two structural rules the tests pin: at every prefix each
// object's opens ≥ its closes (never close what is not open, never open
// what is), and no touch lands on an object that is closed at that point.
func GenScaleOps(cell ScaleCell, node int) []ScaleOp {
	rng := sim.NewRNG(cell.Seed ^ (uint64(node)+1)*scaleSeedSalt)
	z := sim.NewZipf(cell.Objects, cell.ZipfSkew)

	nOpen := cell.OpenObjects
	if nOpen < 1 {
		nOpen = 1
	}
	if nOpen > cell.Objects {
		nOpen = cell.Objects
	}
	open := make([]int, 0, nOpen) // FIFO of open objects
	isOpen := make([]bool, cell.Objects)
	ops := make([]ScaleOp, 0, cell.OpsPerNode+2*nOpen)

	openObj := func(o int) {
		open = append(open, o)
		isOpen[o] = true
		ops = append(ops, ScaleOp{Kind: OpOpen, Obj: o})
	}
	// Each node starts on its own window of the object space so the homes
	// and ring positions all see traffic from the first touch.
	for k := 0; k < nOpen; k++ {
		openObj((node + k) % cell.Objects)
	}

	frac := scaleWriteFrac(node)
	nextProbe := (node + nOpen) % cell.Objects // scan cursor for reopens
	for i := 0; i < cell.OpsPerNode; i++ {
		if cell.ChurnEvery > 0 && i > 0 && i%cell.ChurnEvery == 0 &&
			len(open) > 1 && len(open) < cell.Objects {
			// Close the oldest open object, reopen the next closed one in
			// scan order: the node's working set slides across the space.
			old := open[0]
			open = open[1:]
			isOpen[old] = false
			ops = append(ops, ScaleOp{Kind: OpClose, Obj: old})
			for isOpen[nextProbe] {
				nextProbe = (nextProbe + 1) % cell.Objects
			}
			openObj(nextProbe)
		}
		rank := z.Draw(rng)
		obj := open[rank%len(open)]
		page := rng.Intn(cell.PagesPerObject)
		write := rng.Float64() < frac
		ops = append(ops, ScaleOp{Kind: OpTouch, Obj: obj, Page: page, Write: write})
	}
	return ops
}

// ScaleResult is one drained, invariant-checked cell's simulated metrics:
// the fault-latency distribution plus the forwarding-cost ledger. No field
// is wall-clock derived, so a cell's rendered row is byte-identical across
// worker counts and engines.
type ScaleResult struct {
	Cell    ScaleCell
	Touches int
	Faults  int // faults with nonzero latency (local hits excluded)
	P50     time.Duration
	P99     time.Duration
	Mean    time.Duration
	End     sim.Time // final virtual time

	DataRequests int64
	FwdDynamic   int64
	FwdStatic    int64
	FwdGlobal    int64
	RingScanHops int64
}

// FallbackRate is the fraction of data requests that resolved through the
// global ring scan — the O(n) path the hint caches exist to keep rare.
func (r ScaleResult) FallbackRate() float64 {
	if r.DataRequests == 0 {
		return 0
	}
	return float64(r.FwdGlobal) / float64(r.DataRequests)
}

// RunScaleCell assembles the machine, lays the objects out with rotated
// ring order (homes and static managers spread across the mesh), drives
// every node's generated stream concurrently, drains, checks the global
// invariants (full sweep, or sampled when the cell asks for it), and
// gathers the ledger.
func RunScaleCell(cell ScaleCell) (ScaleResult, error) { return runScaleCell(cell, nil) }

// runScaleCell is RunScaleCell with a hook that sees the drained machine
// just before the invariant check.
func runScaleCell(cell ScaleCell, drained func(*machine.Cluster, *simhost.World)) (ScaleResult, error) {
	p := machine.DefaultParams(cell.Nodes)
	p.Seed = cell.Seed
	if cell.DynCacheSize > 0 {
		p.ASVM.DynamicCacheSize = cell.DynCacheSize
	}
	if cell.StaticCacheSize > 0 {
		p.ASVM.StaticCacheSize = cell.StaticCacheSize
	}
	p.ASVM.HopBound = cell.HopBound
	c := machine.New(p)

	specs := make([]simhost.Spec, cell.Objects)
	for o := range specs {
		idxs := make([]int, cell.Nodes)
		for i := range idxs {
			idxs[i] = (o + i) % cell.Nodes
		}
		specs[o] = simhost.Spec{
			Name:  fmt.Sprintf("s%d", o),
			Pages: int64(cell.PagesPerObject),
			Nodes: idxs,
		}
	}
	w, err := simhost.NewWorld(c, specs)
	if err != nil {
		return ScaleResult{}, err
	}

	series := sim.NewSeries("fault")
	touches := 0
	for n := 0; n < cell.Nodes; n++ {
		if err := w.Prepare(n); err != nil {
			return ScaleResult{}, err
		}
		ops := GenScaleOps(cell, n)
		w.GoOn(n, "scale", func(h app.Host) error {
			for _, op := range ops {
				switch op.Kind {
				case OpOpen:
					if err := h.Open(op.Obj); err != nil {
						return err
					}
				case OpClose:
					if err := h.Close(op.Obj); err != nil {
						return err
					}
				case OpTouch:
					off := int64(op.Page * vm.PageSize)
					t0 := h.Now()
					if op.Write {
						if err := h.Write(op.Obj, off, 0); err != nil {
							return err
						}
					} else if _, err := h.Read(op.Obj, off); err != nil {
						return err
					}
					if d := h.Now() - t0; d > 0 {
						series.Add(d)
					}
				}
			}
			return nil
		})
		for _, op := range ops {
			if op.Kind == OpTouch {
				touches++
			}
		}
	}
	if err := w.Run(); err != nil {
		return ScaleResult{}, err
	}
	end := c.Eng.Now()

	if n := c.Eng.Pending(); n != 0 {
		return ScaleResult{}, fmt.Errorf("scale: %d events still pending after drain", n)
	}
	if drained != nil {
		drained(c, w)
	}
	for o := 0; o < cell.Objects; o++ {
		r := w.Region(o)
		var err error
		if cell.SamplePages > 0 {
			err = asvm.CheckInvariantsSampled(c.ASVMCluster(), r.ASVMInfo(),
				cell.SamplePages, cell.Seed)
		} else {
			err = c.CheckInvariants(r)
		}
		if err != nil {
			return ScaleResult{}, fmt.Errorf("scale %s: %w", r.Name, err)
		}
	}

	res := ScaleResult{
		Cell:    cell,
		Touches: touches,
		Faults:  series.N(),
		P50:     series.Percentile(50),
		P99:     series.Percentile(99),
		Mean:    series.Mean(),
		End:     end,
	}
	for _, nd := range c.ASVMs {
		res.DataRequests += nd.Ctr.V[sim.CtrDataRequests]
		res.FwdDynamic += nd.Ctr.V[sim.CtrFwdDynamic]
		res.FwdStatic += nd.Ctr.V[sim.CtrFwdStatic]
		res.FwdGlobal += nd.Ctr.V[sim.CtrFwdGlobal]
		res.RingScanHops += nd.Ctr.V[sim.CtrRingScanHops]
	}
	return res, nil
}

// ScaleCells builds the sweep: the machine-size ladder (64 → 256 → 1024,
// ops scaled down so the big cells stay tractable) plus a hint-cache sizing
// sweep at 64 nodes (default, tiny, and mid-size caches — the tiny row
// shows the ring scan absorbing the misses). quick keeps the single
// 64-node cell CI smokes.
func ScaleCells(seed uint64, quick bool) []ScaleCell {
	base := ScaleCell{
		Objects:        16,
		PagesPerObject: 8,
		ZipfSkew:       1.0,
		ChurnEvery:     12,
		OpenObjects:    4,
		Seed:           seed,
	}
	c64 := base
	c64.Nodes, c64.OpsPerNode = 64, 48
	if quick {
		return []ScaleCell{c64}
	}
	c256 := base
	c256.Nodes, c256.OpsPerNode = 256, 16
	c1024 := base
	c1024.Nodes, c1024.OpsPerNode = 1024, 6
	c1024.SamplePages = 4 // sampled sweep: full per-page pass is the small-mesh luxury

	tiny := c64
	tiny.DynCacheSize, tiny.StaticCacheSize = 2, 2
	small := c64
	small.DynCacheSize, small.StaticCacheSize = 4, 4
	return []ScaleCell{c64, c256, c1024, tiny, small}
}

// Scale runs the scale-out sweep and renders the report: fault latency
// percentiles and the forwarding ledger per cell. Nothing in the output is
// wall-clock derived — the bytes are identical across -workers settings.
func Scale(w io.Writer, seed uint64, workers int, quick bool) error {
	cells := ScaleCells(seed, quick)
	results, err := RunCells(workers, len(cells), func(i int) (ScaleResult, error) {
		res, err := RunScaleCell(cells[i])
		if err != nil {
			return ScaleResult{}, fmt.Errorf("scale cell %d (%d nodes): %w", i, cells[i].Nodes, err)
		}
		return res, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Scale-out sweep: zipf object churn across machine sizes")
	fmt.Fprintln(w, "(every cell drained and invariant-checked; fallback = fraction of data requests resolved by the global ring scan)")
	fmt.Fprintf(w, "%6s %5s %7s %6s %7s %9s %9s %9s %8s %7s %7s %7s %6s %8s\n",
		"nodes", "objs", "touches", "faults", "p50", "p99", "mean", "vtime",
		"datareq", "dyn", "static", "global", "hops", "fallback")
	for i, r := range results {
		cell := cells[i]
		label := fmt.Sprintf("%d", cell.Nodes)
		if cell.DynCacheSize > 0 {
			label = fmt.Sprintf("%d/c%d", cell.Nodes, cell.DynCacheSize)
		}
		fmt.Fprintf(w, "%6s %5d %7d %6d %7s %9s %9s %9s %8d %7d %7d %7d %6d %7.2f%%\n",
			label, cell.Objects, r.Touches, r.Faults,
			ms(r.P50), ms(r.P99), ms(r.Mean), ms(time.Duration(r.End)),
			r.DataRequests, r.FwdDynamic, r.FwdStatic, r.FwdGlobal,
			r.RingScanHops, r.FallbackRate()*100)
	}
	return nil
}
