// Package vmem implements the simulated anonymous shared memory used by
// the deterministic scheduler (internal/sched) and the model checker
// (internal/explore).
//
// Unlike internal/amem, nothing here is hardware-atomic: the scheduler
// executes exactly one operation at a time, so plain fields suffice and
// every interleaving is reproducible. The package supports two snapshot
// treatments:
//
//   - SnapshotAtomic: the whole m-register snapshot is a single scheduler
//     step. This matches how the paper's proofs reason (snapshots are
//     linearizable, so they may be treated as occurring atomically at
//     their linearization points) and keeps state spaces small for
//     exhaustive exploration.
//   - SnapshotStepper: an honest double-scan whose individual register
//     reads are separate scheduler steps, so adversarial schedules can
//     interleave writers with a snapshot in flight. Used by the
//     double-scan fidelity tests and by simulations configured with
//     honest snapshots.
//
// Stamping (the (writer, seq) metadata on every write) can be disabled;
// the model checker disables it so that global states are canonical (stamp
// counters grow monotonically and would otherwise make every state
// unique). The stepper requires stamping — without stamps a double scan
// cannot detect interference — and panics if used on an unstamped memory.
package vmem

import (
	"fmt"

	"anonmutex/internal/id"
	"anonmutex/internal/perm"
	"anonmutex/internal/register"
)

// Memory is a simulated anonymous memory of m registers. Not safe for
// concurrent use: it belongs to one scheduler.
type Memory struct {
	cells    []register.Stamped
	stamping bool
	writes   uint64
}

// New creates a simulated memory of m registers, all ⊥. stamping controls
// whether writes record (writer, seq) metadata; disable only for
// state-space exploration with atomic snapshots.
func New(m int, stamping bool) *Memory {
	if m < 1 {
		panic(fmt.Sprintf("vmem: memory size must be >= 1, got %d", m))
	}
	return &Memory{cells: make([]register.Stamped, m), stamping: stamping}
}

// Size returns m.
func (mem *Memory) Size() int { return len(mem.cells) }

// Writes returns the total number of write/CAS-success operations applied.
func (mem *Memory) Writes() uint64 { return mem.writes }

// Observe returns the content of physical register x (external observer).
func (mem *Memory) Observe(x int) register.Stamped { return mem.cells[x] }

// Values returns a copy of all algorithmic values in physical order.
func (mem *Memory) Values() []id.ID {
	out := make([]id.ID, len(mem.cells))
	for x, c := range mem.cells {
		out[x] = c.Val
	}
	return out
}

// AppendState appends a canonical encoding of the memory's algorithmic
// content to dst. Stamps are excluded: they are metadata invisible to the
// algorithms' decisions and would defeat cycle detection.
func (mem *Memory) AppendState(dst []byte) []byte {
	for _, c := range mem.cells {
		h := id.Handle(c.Val)
		dst = append(dst, byte(h>>8), byte(h))
	}
	return dst
}

// write applies a stamped or unstamped write to physical register x.
func (mem *Memory) write(x int, val, writer id.ID, seq uint32) {
	mem.writes++
	if mem.stamping {
		mem.cells[x] = register.Stamped{Val: val, Writer: writer, Seq: seq}
		return
	}
	mem.cells[x] = register.Stamped{Val: val}
}

// View is one process's anonymous handle on the memory, mirroring
// amem.View but scheduler-driven.
type View struct {
	mem  *Memory
	perm perm.Perm
	me   id.ID
	seq  uint32
}

// NewView creates the view of this memory for process me under
// permutation p.
func (mem *Memory) NewView(me id.ID, p perm.Perm) (*View, error) {
	if me.IsNone() {
		return nil, fmt.Errorf("vmem: a view requires a process identity, got ⊥")
	}
	if len(p) != len(mem.cells) {
		return nil, fmt.Errorf("vmem: permutation size %d does not match memory size %d", len(p), len(mem.cells))
	}
	if !p.Valid() {
		return nil, fmt.Errorf("vmem: invalid permutation %v", p)
	}
	return &View{mem: mem, perm: p.Clone(), me: me}, nil
}

// Me returns the identity this view belongs to.
func (v *View) Me() id.ID { return v.me }

// Size returns m.
func (v *View) Size() int { return len(v.perm) }

// Read returns the algorithmic value of local register x.
func (v *View) Read(x int) id.ID { return v.mem.cells[v.perm[x]].Val }

// ReadStamped returns the full cell of local register x (used by the
// double-scan stepper).
func (v *View) ReadStamped(x int) register.Stamped { return v.mem.cells[v.perm[x]] }

// Write stores val into local register x with this process's stamp.
func (v *View) Write(x int, val id.ID) {
	v.seq++
	v.mem.write(v.perm[x], val, v.me, v.seq)
}

// CompareAndSwap atomically (in scheduler terms: within this single step)
// replaces local register x's value with newVal if it currently equals
// old.
func (v *View) CompareAndSwap(x int, old, newVal id.ID) bool {
	phys := v.perm[x]
	if !v.mem.cells[phys].Val.Equal(old) {
		return false
	}
	v.seq++
	v.mem.write(phys, newVal, v.me, v.seq)
	return true
}

// SnapshotAtomic returns all m algorithmic values in local order as one
// scheduler step.
func (v *View) SnapshotAtomic(dst []id.ID) []id.ID {
	if cap(dst) < len(v.perm) {
		dst = make([]id.ID, len(v.perm))
	}
	dst = dst[:len(v.perm)]
	for x, phys := range v.perm {
		dst[x] = v.mem.cells[phys].Val
	}
	return dst
}

// SnapshotStepper performs an honest double-scan snapshot one register
// read per Step call, so a scheduler can interleave other processes'
// operations between the reads. It mirrors amem.View.Snapshot exactly,
// with the scheduler supplying the interleaving instead of the hardware.
type SnapshotStepper struct {
	v         *View
	prev, cur []register.Stamped
	idx       int
	haveFirst bool // prev holds a complete collect
	done      bool
	collects  int
}

// NewSnapshotStepper starts a snapshot on v. It panics if v's memory does
// not stamp writes (the double scan would be unsound).
func NewSnapshotStepper(v *View) *SnapshotStepper {
	if !v.mem.stamping {
		panic("vmem: honest snapshot requires a stamping memory")
	}
	m := v.Size()
	return &SnapshotStepper{
		v:    v,
		prev: make([]register.Stamped, m),
		cur:  make([]register.Stamped, m),
	}
}

// Done reports whether the snapshot has completed.
func (s *SnapshotStepper) Done() bool { return s.done }

// Collects returns the number of complete collect passes performed.
func (s *SnapshotStepper) Collects() int { return s.collects }

// Step performs exactly one register read and reports whether the snapshot
// is now complete. It panics if called after completion.
func (s *SnapshotStepper) Step() bool {
	if s.done {
		panic("vmem: Step on a completed snapshot")
	}
	s.cur[s.idx] = s.v.ReadStamped(s.idx)
	s.idx++
	if s.idx < s.v.Size() {
		return false
	}
	// A collect just completed.
	s.idx = 0
	s.collects++
	if s.haveFirst && stampedEqual(s.prev, s.cur) {
		s.done = true
		return true
	}
	s.prev, s.cur = s.cur, s.prev
	s.haveFirst = true
	return false
}

// Result writes the snapshot's algorithmic values (local order) into dst,
// reusing it when capacity allows. It panics if the snapshot is not done.
func (s *SnapshotStepper) Result(dst []id.ID) []id.ID {
	if !s.done {
		panic("vmem: Result on an incomplete snapshot")
	}
	// After the final swap-free comparison, cur holds the last collect
	// and prev an identical one; use cur.
	if cap(dst) < len(s.cur) {
		dst = make([]id.ID, len(s.cur))
	}
	dst = dst[:len(s.cur)]
	for x, c := range s.cur {
		dst[x] = c.Val
	}
	return dst
}

func stampedEqual(a, b []register.Stamped) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
