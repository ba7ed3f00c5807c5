// Package core implements the paper's two algorithms — the symmetric
// deadlock-free mutual exclusion protocols for anonymous read/write memory
// (Algorithm 1, Figure 1) and anonymous read/modify/write memory
// (Algorithm 2, Figure 2) — as explicit state machines.
//
// # Why state machines
//
// Every protocol step that touches shared memory is reified as an Op that
// the machine *requests* and an OpResult that is *fed back* via Advance.
// One implementation of each algorithm therefore runs unchanged on two
// different substrates, both reached through the unified op executor
// (internal/engine):
//
//   - the real locks (package anonmutex at the repository root) use the
//     engine's blocking Driver against hardware-atomic anonymous memory
//     (internal/amem), giving a production lock;
//   - the virtual scheduler (internal/sched) dispatches ops one at a time
//     through the same engine against simulated memory (internal/vmem),
//     giving deterministic replayable executions, adversarial schedules
//     (including the Theorem 5 lock-step executions), and exhaustive
//     state-space exploration (internal/explore).
//
// The machines are line-faithful: program phases correspond to the
// numbered lines of Figures 1 and 2, and Line() reports the current line
// for traces. All arithmetic from the paper is integer-exact:
// "owned < m/cnt" is evaluated as owned*cnt < m, and "owned > m/2" as
// 2*owned > m.
//
// # Symmetry discipline
//
// Machines manipulate identities exclusively through id.Equal/IsNone.
// Equivariance tests verify behavior is invariant under identity
// relabeling, which is the operational meaning of the paper's "symmetric
// algorithm" (§II-C).
package core

import (
	"fmt"

	"anonmutex/internal/id"
)

// OpKind enumerates the shared-memory operations a machine can request.
type OpKind uint8

// Operation kinds. OpSnapshot is only requested by Algorithm 1; OpCAS only
// by Algorithm 2 (the models differ exactly in these operations).
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpCAS
	OpSnapshot
)

// String returns the operation kind name.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCAS:
		return "cas"
	case OpSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one pending shared-memory operation, expressed in the requesting
// process's local register names (anonymity is applied by the executor).
type Op struct {
	Kind OpKind
	X    int   // local register index (Read, Write, CAS)
	Val  id.ID // value to write (Write)
	Old  id.ID // CAS comparand
	New  id.ID // CAS replacement
}

// CASMemory is the one operation a compare&swap sweep needs from the
// memory, in the process's local register names; every executor of the
// engine package provides it.
type CASMemory interface {
	CompareAndSwap(x int, old, newVal id.ID) bool
}

// ReadMemory is the one operation a read sweep needs from the memory, in
// the process's local register names; every executor of the engine
// package provides it.
type ReadMemory interface {
	Read(x int) id.ID
}

// OpResult carries the outcome of an executed Op back into the machine.
type OpResult struct {
	Val     id.ID   // Read: the value read
	Snap    []id.ID // Snapshot: all m values in local order; the machine copies it
	Swapped bool    // CAS: whether the swap took effect
}

// Status describes where a machine is in the lock/unlock life cycle.
type Status uint8

// Machine statuses. The cycle is:
// Idle →(StartLock)→ Running →(Advance…)→ InCS →(StartUnlock)→ Running
// →(Advance…)→ Idle. A Running lock() can instead be withdrawn:
// Running →(StartAbort)→ Running →(Advance…)→ Idle, never passing
// through InCS.
const (
	StatusIdle    Status = iota + 1 // in the remainder section
	StatusRunning                   // executing lock() or unlock(); feed ops
	StatusInCS                      // inside the critical section
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusIdle:
		return "idle"
	case StatusRunning:
		return "running"
	case StatusInCS:
		return "in-cs"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Machine is a mutual-exclusion protocol instance for one process. A
// Machine is not safe for concurrent use: it belongs to its process.
type Machine interface {
	// Me returns the identity of the process running this machine.
	Me() id.ID
	// Status reports the life-cycle position.
	Status() Status
	// StartLock begins a lock() invocation. It returns an error unless the
	// machine is Idle.
	StartLock() error
	// StartUnlock begins an unlock() invocation. It returns an error
	// unless the machine is InCS.
	StartUnlock() error
	// StartAbort begins a withdraw: it turns an in-progress lock()
	// invocation into a bounded back-out that erases every register
	// holding this process's identity and returns the machine to Idle.
	// The withdraw is itself an invocation — keep feeding ops through
	// Advance until Status leaves Running. It returns an error unless the
	// machine is Running inside lock(); a machine that already entered
	// the critical section (InCS) cannot abort, and unlock() never needs
	// to (it is bounded already).
	StartAbort() error
	// PendingOp returns the shared-memory operation the machine needs
	// executed next. It panics unless Status is Running.
	PendingOp() Op
	// Advance feeds the result of the pending op and returns the new
	// status. It panics unless Status is Running.
	Advance(OpResult) Status
	// SweepCAS runs the rest of the compare&swap sweep the pending op
	// belongs to, at most max ops: it issues each pending compare&swap
	// against mem and feeds the outcome to Advance before issuing the
	// next, exactly as a caller alternating PendingOp and Advance would.
	// It returns how many ops it executed and whether any of them
	// swapped. It returns 0 when the pending op opens no such sweep (a
	// machine may always answer 0); the caller then executes that op
	// through PendingOp.
	SweepCAS(mem CASMemory, max int) (ops int, swapped bool)
	// SweepRead is SweepCAS for a read sweep: it runs the rest of the
	// collect or wait pass the pending read belongs to, at most max ops,
	// feeding each value to Advance before issuing the next read. It
	// returns how many reads it executed, or 0 when the pending op opens
	// no such sweep.
	SweepRead(mem ReadMemory, max int) (ops int)
	// Absent reports, after a step that changed no register, whether the
	// process waits holding no register, so that only an empty memory can
	// let it in (Algorithm 2's lines 8–10, Algorithm 1's line 4 on a
	// snapshot without idᵢ). A waiting process may park until a store
	// wakes it: an absent one on an erase, any other on every store. A
	// machine may always answer false.
	Absent() bool
	// Line reports the paper line number the machine is about to execute,
	// for traces and experiments (0 when idle).
	Line() int
	// LockSteps reports how many shared-memory operations the current (or
	// most recent) lock() invocation has performed. A snapshot counts as
	// one operation here; executors may expand it into many reads.
	LockSteps() int
	// OwnedAtEntry reports how many registers held this process's identity
	// in the view that let the most recent lock() complete (Algorithm 1:
	// always m; Algorithm 2: the majority count). 0 if never entered.
	OwnedAtEntry() int
	// AppendState appends a canonical encoding of the machine's complete
	// local state to dst, for state-space exploration and fingerprints.
	AppendState(dst []byte) []byte
	// Clone returns an independent copy of the machine's protocol state,
	// for state-space exploration. Configuration (including any PRNG) is
	// shared, so exploration requires deterministic configurations.
	Clone() Machine
}

// appendUint16 and appendInt are tiny canonical-encoding helpers shared by
// the machines' AppendState implementations.
func appendUint16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendInt(dst []byte, v int) []byte {
	u := uint64(int64(v))
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

func appendView(dst []byte, view []id.ID) []byte {
	for _, v := range view {
		dst = appendUint16(dst, id.Handle(v))
	}
	return dst
}

// countOwned returns |{x : view[x] = me}| — the paper's owned() operation.
func countOwned(view []id.ID, me id.ID) int {
	owned := 0
	for _, v := range view {
		if v.Equal(me) {
			owned++
		}
	}
	return owned
}

// allBottom reports whether every entry of view is ⊥.
func allBottom(view []id.ID) bool {
	for _, v := range view {
		if !v.IsNone() {
			return false
		}
	}
	return true
}

// allMine reports whether every entry of view equals me.
func allMine(view []id.ID, me id.ID) bool {
	for _, v := range view {
		if !v.Equal(me) {
			return false
		}
	}
	return true
}

// distinctOwners returns the number of distinct non-⊥ identities in view —
// the paper's cnti ← |{view[1], …, view[m]}| over a full view (line 8 of
// Algorithm 1 counts competitors).
//
// The quadratic scan keeps the computation free of maps (no allocation,
// canonical behavior for state encoding); m is small.
func distinctOwners(view []id.ID) int {
	cnt := 0
	for i, v := range view {
		if v.IsNone() {
			continue
		}
		first := true
		for j := 0; j < i; j++ {
			if view[j].Equal(v) {
				first = false
				break
			}
		}
		if first {
			cnt++
		}
	}
	return cnt
}

// mostPresent returns the maximum number of times any single non-⊥ value
// appears in view — line 4 of Algorithm 2.
func mostPresent(view []id.ID) int {
	best := 0
	for i, v := range view {
		if v.IsNone() {
			continue
		}
		// Count only at the first occurrence of v.
		dup := false
		for j := 0; j < i; j++ {
			if view[j].Equal(v) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		c := 0
		for j := i; j < len(view); j++ {
			if view[j].Equal(v) {
				c++
			}
		}
		if c > best {
			best = c
		}
	}
	return best
}
