package app

import (
	"fmt"
	"time"
)

// An op stream is the portable workload form both backends execute the
// same way: a fixed sequence of operations, one at a time, each drained
// to protocol quiescence before the next. Sequential-with-drain makes the
// protocol's message schedule deterministic, so the same stream run on
// the real mesh and on the simulator must take identical protocol
// decisions — counter parity between the twins is the correctness anchor
// the loopback tests and the netdemo pin.

// OpKind classifies one step of an op stream.
type OpKind uint8

// The op-stream alphabet. Every backend implements all of it through Mem.
const (
	OpRead OpKind = iota
	OpWrite
	OpLock
	OpUnlock
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpLock:
		return "lock"
	case OpUnlock:
		return "unlock"
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Op is one step of an op stream. All streams run against object 0 — the
// single shared region both backends provide to op-stream workloads.
type Op struct {
	Label string // for the latency report
	Node  int    // node performing the op
	Kind  OpKind
	Addr  int64  // byte offset in the shared region (read/write)
	Val   uint64 // value to write
	Want  uint64 // expected value (reads with Check)
	Check bool   // verify a read's value
	Lo    int64  // first page (lock/unlock)
	Hi    int64  // one past the last page (lock/unlock)
}

// Pages returns the region size in pages an op stream needs.
func Pages(ops []Op, pageSize int64) int64 {
	var maxAddr int64
	for _, op := range ops {
		if op.Addr > maxAddr {
			maxAddr = op.Addr
		}
		if hi := op.Hi * pageSize; hi > maxAddr {
			maxAddr = hi - 1
		}
	}
	return maxAddr/pageSize + 1
}

// Env executes op streams on one backend: a per-op step primitive that
// drains the system to quiescence afterwards, plus the drained protocol
// counters. simhost and dsmhost both implement it.
type Env interface {
	// Step runs fn as one short thread of control on the given node and
	// drains to quiescence before returning. The returned duration is the
	// operation's own latency on the env's clock — virtual time on the
	// simulator, the daemon-measured wall latency on the mesh.
	Step(node int, label string, fn func(m Mem) error) (time.Duration, error)

	// Drain waits for full protocol quiescence (a stricter final check
	// than the per-step drain on backends where frames ride a real wire).
	Drain() error

	// Counters returns the mesh-wide protocol counters summed over nodes.
	Counters() (map[string]int64, error)
}

// Result is one executed op stream: per-op latencies on the env's clock,
// and the drained mesh-wide protocol counters.
type Result struct {
	PerOp    []time.Duration
	Counters map[string]int64
}

// Run executes an op stream on an env: each op as its own drained step,
// then a final drain and the counter harvest.
func Run(env Env, ops []Op) (*Result, error) {
	res := &Result{}
	for _, op := range ops {
		op := op
		lat, err := env.Step(op.Node, op.Label, func(h Mem) error {
			switch op.Kind {
			case OpWrite:
				return h.Write(0, op.Addr, op.Val)
			case OpRead:
				v, err := h.Read(0, op.Addr)
				if err == nil && op.Check && v != op.Want {
					err = fmt.Errorf("read %d, want %d", v, op.Want)
				}
				return err
			case OpLock:
				return h.Lock(0, op.Lo, op.Hi)
			case OpUnlock:
				return h.Unlock(0, op.Lo, op.Hi)
			}
			return fmt.Errorf("unknown op kind %v", op.Kind)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op.Label, err)
		}
		res.PerOp = append(res.PerOp, lat)
	}
	if err := env.Drain(); err != nil {
		return nil, err
	}
	ctrs, err := env.Counters()
	if err != nil {
		return nil, err
	}
	res.Counters = ctrs
	return res, nil
}
