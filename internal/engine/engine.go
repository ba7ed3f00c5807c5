// Package engine is the unified op-execution layer: one substrate-
// independent Executor interface plus one machine-driving loop, shared by
// every way the repository runs the paper's algorithms.
//
// The algorithms (internal/core) are pure state machines: they request
// shared-memory operations (core.Op) and consume results (core.OpResult)
// without knowing what memory they run against. This package closes the
// loop. An Executor is one process's anonymous window onto a memory
// substrate; two substrates are provided:
//
//   - Hardware wraps an amem.View — real hardware-atomic registers, for
//     the production locks at the repository root;
//   - Simulated wraps a vmem.View — the deterministic simulated memory,
//     for the scheduler (internal/sched), scenarios, and tests.
//
// Exec dispatches a single pending op against either substrate; Driver
// runs a machine's whole invocation to completion, handing each of
// Algorithm 2's compare&swap and read sweeps to the machine whole, and
// waits the real locks' wait loops out by parking: a short spin, then
// the process blocks until a store to its memory wakes it (amem's park
// lot), its context ends, or a cap passes. Both paths are
// allocation-free per operation: snapshot buffers are owned by the
// Driver (or caller) and reused, and Exec returns results by value.
// DriveContext adds deadline-bounded, abortable acquisition: a context
// cancelled mid-lock() — parked or not — triggers the machine's
// StartAbort withdraw, a bounded erase sweep that leaves the anonymous
// registers exactly as if the process had never competed.
//
// Recorder wraps any Executor and logs the full operation/result stream,
// enabling cross-substrate equivalence checks: under a deterministic
// configuration the same machine must produce identical op traces on
// hardware and simulated memory.
package engine

import (
	"fmt"

	"anonmutex/internal/amem"
	"anonmutex/internal/core"
	"anonmutex/internal/id"
	"anonmutex/internal/vmem"
)

// Executor is one process's substrate-independent handle on an anonymous
// shared memory: the four operations of the paper's two models, addressed
// by local (permuted) register names. Implementations are single-process
// objects — an Executor belongs to one machine at a time.
type Executor interface {
	// Size returns m, the number of anonymous registers.
	Size() int
	// Read returns the algorithmic value of local register x.
	Read(x int) id.ID
	// Write stores val into local register x.
	Write(x int, val id.ID)
	// CompareAndSwap replaces local register x's value with newVal iff it
	// currently equals old, reporting whether the swap took effect (RMW
	// model only).
	CompareAndSwap(x int, old, newVal id.ID) bool
	// Snapshot returns a consistent snapshot of all m registers in local
	// order, reusing dst when its capacity allows (RW model only).
	Snapshot(dst []id.ID) []id.ID
	// Park registers the process as a waiter on the memory (holds: it may
	// own a register). The caller re-reads the memory once more, then
	// blocks in the registration's Wait; a wake or Cancel ends it. A
	// substrate that cannot block returns nil, whose Wait returns at once.
	Park(holds bool) *amem.Parking
	// Notify follows a store to the memory (erased: of ⊥) and wakes the
	// parked waiters it may let in.
	Notify(erased bool)
}

// Hardware returns the Executor backed by a real hardware-atomic view.
// amem.View already implements every operation (its Snapshot is the
// linearizable double scan), so this is a zero-cost adaptation.
func Hardware(v *amem.View) Executor { return v }

// simulated adapts a vmem.View: the simulated substrate names its
// one-step snapshot SnapshotAtomic, which is the treatment the paper's
// proofs use (a linearizable snapshot may be placed at its linearization
// point).
type simulated struct{ *vmem.View }

func (s simulated) Snapshot(dst []id.ID) []id.ID { return s.View.SnapshotAtomic(dst) }

// Park implements Executor: the simulated memory belongs to one
// goroutine, so no store can arrive while its process waits, and the
// park returns at once.
func (simulated) Park(bool) *amem.Parking { return nil }

// Notify implements Executor: nobody parks on the simulated memory.
func (simulated) Notify(bool) {}

// Simulated returns the Executor backed by a simulated view. Snapshots
// execute atomically; schedulers that want honest double-scan snapshots
// keep using vmem.SnapshotStepper directly.
func Simulated(v *vmem.View) Executor { return simulated{v} }

// Exec executes one pending op against x, reusing snapBuf for snapshot
// results. It returns the op's result and the (possibly grown) snapshot
// buffer; res.Snap aliases the returned buffer, which the machine copies
// during Advance. Exec allocates only if the snapshot buffer must grow.
func Exec(x Executor, op core.Op, snapBuf []id.ID) (res core.OpResult, buf []id.ID, err error) {
	switch op.Kind {
	case core.OpRead:
		res.Val = x.Read(op.X)
	case core.OpWrite:
		x.Write(op.X, op.Val)
	case core.OpCAS:
		res.Swapped = x.CompareAndSwap(op.X, op.Old, op.New)
	case core.OpSnapshot:
		snapBuf = x.Snapshot(snapBuf)
		res.Snap = snapBuf
	default:
		return res, snapBuf, fmt.Errorf("engine: unknown op kind %v", op.Kind)
	}
	return res, snapBuf, nil
}

// OpRecord is one executed operation with its inputs and outcome, as seen
// at the Executor boundary.
type OpRecord struct {
	Kind     core.OpKind
	X        int
	Val      id.ID   // Write: value written
	Old, New id.ID   // CAS: comparand and replacement
	Out      id.ID   // Read: value read
	Swapped  bool    // CAS: outcome
	Snap     []id.ID // Snapshot: result (copied)
}

// String renders the record compactly for test failure messages.
func (r OpRecord) String() string {
	switch r.Kind {
	case core.OpRead:
		return fmt.Sprintf("read(%d)=%v", r.X, r.Out)
	case core.OpWrite:
		return fmt.Sprintf("write(%d,%v)", r.X, r.Val)
	case core.OpCAS:
		return fmt.Sprintf("cas(%d,%v,%v)=%v", r.X, r.Old, r.New, r.Swapped)
	case core.OpSnapshot:
		return fmt.Sprintf("snapshot()=%v", r.Snap)
	default:
		return fmt.Sprintf("op(%d)", r.Kind)
	}
}

// Recorder wraps an Executor and records every operation and its result,
// for debugging and for the cross-substrate equivalence tests. Recording
// allocates; use it for analysis, not hot paths.
type Recorder struct {
	Inner Executor
	Log   []OpRecord
}

// NewRecorder wraps inner.
func NewRecorder(inner Executor) *Recorder { return &Recorder{Inner: inner} }

// Size implements Executor.
func (r *Recorder) Size() int { return r.Inner.Size() }

// Read implements Executor.
func (r *Recorder) Read(x int) id.ID {
	v := r.Inner.Read(x)
	r.Log = append(r.Log, OpRecord{Kind: core.OpRead, X: x, Out: v})
	return v
}

// Write implements Executor.
func (r *Recorder) Write(x int, val id.ID) {
	r.Inner.Write(x, val)
	r.Log = append(r.Log, OpRecord{Kind: core.OpWrite, X: x, Val: val})
}

// CompareAndSwap implements Executor.
func (r *Recorder) CompareAndSwap(x int, old, newVal id.ID) bool {
	ok := r.Inner.CompareAndSwap(x, old, newVal)
	r.Log = append(r.Log, OpRecord{Kind: core.OpCAS, X: x, Old: old, New: newVal, Swapped: ok})
	return ok
}

// Park implements Executor; parking is not an op and is not recorded.
func (r *Recorder) Park(holds bool) *amem.Parking { return r.Inner.Park(holds) }

// Notify implements Executor, unrecorded like Park.
func (r *Recorder) Notify(erased bool) { r.Inner.Notify(erased) }

// Snapshot implements Executor.
func (r *Recorder) Snapshot(dst []id.ID) []id.ID {
	out := r.Inner.Snapshot(dst)
	cp := make([]id.ID, len(out))
	copy(cp, out)
	r.Log = append(r.Log, OpRecord{Kind: core.OpSnapshot, Snap: cp})
	return out
}
