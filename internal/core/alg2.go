package core

import (
	"fmt"

	"anonmutex/internal/id"
	"anonmutex/internal/mset"
)

// alg2Phase is the program counter of an Algorithm 2 machine, named after
// the lines of Figure 2.
type alg2Phase uint8

const (
	a2Idle        alg2Phase = iota + 1 // remainder section
	a2CAS                              // line 2: R.compare&swap(x, ⊥, idᵢ) sweep
	a2Collect                          // line 3: viewᵢ[x] ← R.read(x) sweep
	a2ResignWrite                      // line 7: R.write(x, ⊥) for owned entries
	a2WaitRead                         // lines 8–10: read sweep until all ⊥
	a2InCS                             // line 12 satisfied: critical section
	a2UnlockCAS                        // line 13: R.compare&swap(x, idᵢ, ⊥) sweep
	a2AbortCAS                         // withdraw: R.compare&swap(x, idᵢ, ⊥) sweep
)

// Alg2Machine is the per-process state machine of the paper's Algorithm 2:
// symmetric deadlock-free mutual exclusion over m anonymous
// read/modify/write registers, for any m ∈ M(n) (m = 1 included).
//
// Protocol summary (Figure 2): a process sweeps the memory trying to
// compare&swap its identity into every ⊥ register (line 2), then reads
// everything (line 3). If it owns at least as many registers as the most
// present competitor it keeps competing, entering the critical section as
// soon as it owns a strict majority (line 12). Otherwise it resigns: it
// erases itself (line 7) and waits until the memory is completely empty
// (lines 8–10) before competing again. m ∈ M(n) guarantees that when the
// memory is saturated, not every competitor can own the same number of
// registers, so somebody resigns and the leaders can absorb the freed
// registers.
type Alg2Machine struct {
	me  id.ID
	m   int
	cfg Alg2Config

	status Status
	phase  alg2Phase

	view   []id.ID
	cursor int

	// owned and most are the paper's ownedᵢ and most_presentᵢ locals
	// (lines 4–5), retained because the line 12 until-condition consults
	// ownedᵢ after the optional resign branch.
	owned int
	most  int
	// casWins counts successful compare&swaps in the current line 2
	// sweep, for the SoloFastPath entry decision.
	casWins int

	lockSteps    int
	ownedAtEntry int
}

var _ Machine = (*Alg2Machine)(nil)

// NewAlg2 creates an Algorithm 2 machine for process me over an anonymous
// RMW memory of m registers shared by n processes, validating m ∈ M(n).
func NewAlg2(me id.ID, n, m int, cfg Alg2Config) (*Alg2Machine, error) {
	if err := mset.ValidateRMW(n, m); err != nil {
		return nil, fmt.Errorf("core: algorithm 2 precondition: %w", err)
	}
	return NewAlg2Unchecked(me, m, cfg)
}

// NewAlg2Unchecked creates an Algorithm 2 machine without validating the
// m ∈ M(n) precondition, for the Theorem 5 lower-bound experiments.
func NewAlg2Unchecked(me id.ID, m int, cfg Alg2Config) (*Alg2Machine, error) {
	if me.IsNone() {
		return nil, fmt.Errorf("core: algorithm 2 requires a process identity")
	}
	if m < 1 {
		return nil, fmt.Errorf("core: algorithm 2 requires m >= 1, got %d", m)
	}
	return &Alg2Machine{
		me:     me,
		m:      m,
		cfg:    cfg,
		status: StatusIdle,
		phase:  a2Idle,
		view:   make([]id.ID, m),
	}, nil
}

// Me implements Machine.
func (a *Alg2Machine) Me() id.ID { return a.me }

// Status implements Machine.
func (a *Alg2Machine) Status() Status { return a.status }

// View returns the machine's current viewᵢ (the machine's own storage;
// callers must not modify it). For monitors and tests.
func (a *Alg2Machine) View() []id.ID { return a.view }

// StartLock implements Machine: begin lock() (lines 1–12).
func (a *Alg2Machine) StartLock() error {
	if a.status != StatusIdle {
		return fmt.Errorf("core: StartLock in status %v", a.status)
	}
	a.status = StatusRunning
	a.startCASSweep()
	a.lockSteps = 0
	return nil
}

// startCASSweep (re-)enters the line 2 compare&swap sweep.
func (a *Alg2Machine) startCASSweep() {
	a.phase = a2CAS
	a.cursor = 0
	a.casWins = 0
}

// StartUnlock implements Machine: begin unlock() (line 13).
func (a *Alg2Machine) StartUnlock() error {
	if a.status != StatusInCS {
		return fmt.Errorf("core: StartUnlock in status %v", a.status)
	}
	a.status = StatusRunning
	a.phase = a2UnlockCAS
	a.cursor = 0
	return nil
}

// StartAbort implements Machine: withdraw from an in-progress lock().
//
// The withdraw is the line 13 erase sweep run early: compare&swap(idᵢ, ⊥)
// over all m registers. CAS makes each erase atomic, registers hold idᵢ
// only because this process swapped it in, and the withdrawing process
// writes nothing further — so after the sweep no register holds idᵢ and
// the process is invisible to every later competitor. Unlike the resign
// branch (lines 7–10) the withdraw does not wait for an empty memory: the
// process is leaving the competition, not re-entering it.
func (a *Alg2Machine) StartAbort() error {
	if a.status != StatusRunning || a.phase == a2UnlockCAS {
		return fmt.Errorf("core: StartAbort in status %v (withdraw applies only inside lock())", a.status)
	}
	a.cursor = 0
	a.phase = a2AbortCAS
	return nil
}

// PendingOp implements Machine.
func (a *Alg2Machine) PendingOp() Op {
	switch a.phase {
	case a2CAS:
		return Op{Kind: OpCAS, X: a.cursor, Old: id.None, New: a.me}
	case a2Collect, a2WaitRead:
		return Op{Kind: OpRead, X: a.cursor}
	case a2ResignWrite:
		return Op{Kind: OpWrite, X: a.cursor, Val: id.None}
	case a2UnlockCAS, a2AbortCAS:
		return Op{Kind: OpCAS, X: a.cursor, Old: a.me, New: id.None}
	default:
		panic(fmt.Sprintf("core: PendingOp on algorithm 2 machine in phase %d status %v", a.phase, a.status))
	}
}

// Advance implements Machine.
func (a *Alg2Machine) Advance(res OpResult) Status {
	if a.status != StatusRunning {
		panic(fmt.Sprintf("core: Advance on algorithm 2 machine in status %v", a.status))
	}
	if a.phase != a2UnlockCAS {
		a.lockSteps++
	}
	switch a.phase {
	case a2CAS:
		// Line 2: the sweep ignores individual CAS outcomes — except under
		// SoloFastPath, which counts them to detect the uncontended case.
		if res.Swapped {
			a.casWins++
		}
		a.cursor++
		if a.cursor == a.m {
			if a.cfg.SoloFastPath && a.casWins == a.m {
				// Every CAS won: all m registers hold idᵢ, and nothing can
				// dislodge a foreign identity, so pᵢ owns a strict majority
				// without reading anything back. Enter directly.
				for x := range a.view {
					a.view[x] = a.me
				}
				a.owned = a.m
				a.most = a.m
				a.ownedAtEntry = a.m
				a.status = StatusInCS
				a.phase = a2InCS
				return a.status
			}
			a.cursor = 0
			a.phase = a2Collect
		}
	case a2Collect:
		// Line 3: collect the memory into viewᵢ.
		a.view[a.cursor] = res.Val
		a.cursor++
		if a.cursor == a.m {
			a.afterCollect()
		}
	case a2ResignWrite:
		a.advanceResignCursor()
	case a2WaitRead:
		// Lines 8–10: read sweep; at the end of a pass, exit only on an
		// all-⊥ view.
		a.view[a.cursor] = res.Val
		a.cursor++
		if a.cursor == a.m {
			if allBottom(a.view) {
				// Line 12: ownedᵢ (from line 5) was below most_presentᵢ,
				// hence at most m/2: loop back to line 2.
				a.startCASSweep()
			} else {
				a.cursor = 0 // restart the pass (line 8 repeat)
			}
		}
	case a2UnlockCAS, a2AbortCAS:
		// Line 13 sweep (run early, from any lock() point, when aborting).
		a.cursor++
		if a.cursor == a.m {
			a.status = StatusIdle
			a.phase = a2Idle
		}
	default:
		panic(fmt.Sprintf("core: Advance on algorithm 2 machine in phase %d", a.phase))
	}
	return a.status
}

// SweepCAS implements Machine for the three compare&swap sweeps: line 2's
// claim, line 13's erase and the withdraw. Within a sweep PendingOp's
// operands stay fixed and only X (the cursor) moves, and each result goes
// through Advance, so the sweep issues the same operations, in the same
// order, with the same operands and the same state changes as op-by-op
// driving. It stops at the sweep's end (where line 3's read sweep, the
// critical section or Idle begins) or after max ops.
func (a *Alg2Machine) SweepCAS(mem CASMemory, max int) (ops int, swapped bool) {
	op := a.PendingOp()
	if op.Kind != OpCAS {
		return 0, false
	}
	phase := a.phase
	for ops < max && a.phase == phase {
		ok := mem.CompareAndSwap(a.cursor, op.Old, op.New)
		swapped = swapped || ok
		ops++
		a.Advance(OpResult{Swapped: ok})
	}
	return ops, swapped
}

// SweepRead implements Machine for line 3's collect and one pass of lines
// 8–10: the reads go through Advance one by one, as with SweepCAS, and
// the sweep stops where the collect ends (lines 4–12 decide what
// follows), where the pass ends (cursor back at 0, or the wait over), or
// after max ops.
func (a *Alg2Machine) SweepRead(mem ReadMemory, max int) (ops int) {
	phase := a.phase
	if phase != a2Collect && phase != a2WaitRead {
		return 0
	}
	for ops < max {
		ops++
		a.Advance(OpResult{Val: mem.Read(a.cursor)})
		if a.phase != phase || a.cursor == 0 {
			break
		}
	}
	return ops
}

// Absent implements Machine: a process waits absent exactly in lines
// 8–10, after line 7 erased every register it owned.
func (a *Alg2Machine) Absent() bool { return a.phase == a2WaitRead }

// afterCollect runs lines 4–6 and 11–12 after a complete line 3 sweep.
func (a *Alg2Machine) afterCollect() {
	a.most = mostPresent(a.view)       // line 4
	a.owned = countOwned(a.view, a.me) // line 5

	if a.owned < a.most { // line 6
		// Resign: erase own entries (line 7), then wait for an empty
		// memory (lines 8–10) unless the ablation skips the wait.
		if a.startResign() {
			return
		}
		// Nothing to erase: go directly to the wait loop (or retry).
		a.enterWaitOrRetry()
		return
	}

	// Line 12: strict majority wins.
	if 2*a.owned > a.m {
		a.ownedAtEntry = a.owned
		a.status = StatusInCS
		a.phase = a2InCS
		return
	}
	// Keep competing: back to line 2.
	a.startCASSweep()
}

// startResign positions the cursor at the first owned view entry for the
// line 7 erase sweep. It reports whether any entry is owned.
func (a *Alg2Machine) startResign() bool {
	for x := 0; x < a.m; x++ {
		if a.view[x].Equal(a.me) {
			a.cursor = x
			a.phase = a2ResignWrite
			return true
		}
	}
	return false
}

func (a *Alg2Machine) advanceResignCursor() {
	for x := a.cursor + 1; x < a.m; x++ {
		if a.view[x].Equal(a.me) {
			a.cursor = x
			a.phase = a2ResignWrite
			return
		}
	}
	a.enterWaitOrRetry()
}

func (a *Alg2Machine) enterWaitOrRetry() {
	if a.cfg.SkipWaitForEmpty {
		// Ablation: straight back to line 2 (ownedᵢ < most ⟹ ownedᵢ ≤ m/2,
		// so the line 12 until-condition is false).
		a.startCASSweep()
		return
	}
	a.cursor = 0
	a.phase = a2WaitRead
}

// Line implements Machine (diagnostic paper-line mapping).
func (a *Alg2Machine) Line() int {
	switch a.phase {
	case a2Idle:
		return 0
	case a2CAS:
		return 2
	case a2Collect:
		return 3
	case a2ResignWrite:
		return 7
	case a2WaitRead:
		return 9
	case a2InCS:
		return 12
	case a2UnlockCAS, a2AbortCAS:
		return 13
	default:
		return -1
	}
}

// LockSteps implements Machine.
func (a *Alg2Machine) LockSteps() int { return a.lockSteps }

// OwnedAtEntry implements Machine.
func (a *Alg2Machine) OwnedAtEntry() int { return a.ownedAtEntry }

// Clone implements Machine.
func (a *Alg2Machine) Clone() Machine {
	c := *a
	c.view = make([]id.ID, len(a.view))
	copy(c.view, a.view)
	return &c
}

// AppendState implements Machine. As with Algorithm 1, diagnostic counters
// are excluded; owned and most are included because the line 12 decision
// depends on them after the resign branch.
func (a *Alg2Machine) AppendState(dst []byte) []byte {
	dst = append(dst, byte(a.status), byte(a.phase))
	dst = appendUint16(dst, id.Handle(a.me))
	dst = appendInt(dst, a.cursor)
	dst = appendInt(dst, a.owned)
	dst = appendInt(dst, a.most)
	// casWins feeds the SoloFastPath entry decision mid-sweep, so it is
	// protocol state exactly when that path is enabled; leaving it out
	// otherwise keeps the paper algorithm's canonical state space (and the
	// TestStateCountsStable anchors) unchanged.
	if a.cfg.SoloFastPath {
		dst = appendInt(dst, a.casWins)
	}
	return appendView(dst, a.view)
}
