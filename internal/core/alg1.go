package core

import (
	"fmt"

	"anonmutex/internal/id"
	"anonmutex/internal/mset"
)

// alg1Phase is the program counter of an Algorithm 1 machine. The phases
// name the paper lines (Figure 1) at which the machine is about to perform
// a shared-memory operation; all pure-local computation (lines 1, 5, 8, 9
// condition, 11 condition) happens inside Advance between two phases.
type alg1Phase uint8

const (
	a1Idle        alg1Phase = iota + 1 // remainder section
	a1Snapshot                         // line 4: viewᵢ ← R.snapshot()
	a1WriteClaim                       // line 6: R.write(x, idᵢ) into a ⊥ slot
	a1SoloClaim                        // SoloClaimUnsafe ablation: claim every register of an all-⊥ view
	a1ShrinkRead                       // shrink() line 2: R.read(x)
	a1ShrinkWrite                      // shrink() line 2: R.write(x, ⊥)
	a1InCS                             // line 11 satisfied: critical section
	a1AbortRead                        // withdraw: R.read(x) over every register
	a1AbortWrite                       // withdraw: R.write(x, ⊥) where x held idᵢ
)

// Alg1Machine is the per-process state machine of the paper's Algorithm 1:
// symmetric deadlock-free mutual exclusion over m anonymous read/write
// registers, for any m ∈ M(n) with m ≥ n.
//
// Protocol summary (Figure 1): a process repeatedly snapshots the memory.
// If it sees only ⊥ or its own identity somewhere, it competes: it claims
// a ⊥ register by writing its identity (line 6). Once the memory is full,
// the competitors that own fewer than the average m/cnt registers withdraw
// by erasing themselves (shrink, line 9) — and m ∈ M(n) guarantees the
// average is never achievable by all, so somebody always withdraws. The
// process that observes a snapshot with all m registers equal to its own
// identity has won and enters the critical section (line 11). unlock() is
// shrink() (line 12).
type Alg1Machine struct {
	me  id.ID
	m   int
	cfg Alg1Config

	status Status
	phase  alg1Phase

	// view is the paper's viewᵢ[1..m]: the result of the last snapshot.
	// It has global scope in the paper (it survives across operations;
	// unlock's shrink consults it).
	view []id.ID

	// cursor is the local register index currently being shrunk
	// (a1ShrinkRead / a1ShrinkWrite).
	cursor int
	// holes is a reusable scratch buffer for chooseBottom's random policy,
	// so steady-state driving allocates nothing per operation.
	holes []int
	// unlockShrink distinguishes the shrink of unlock() (line 12, leads to
	// Idle) from the withdrawal shrink of lock() line 9 (leads back to the
	// snapshot loop).
	unlockShrink bool

	lockSteps    int
	ownedAtEntry int
}

var _ Machine = (*Alg1Machine)(nil)

// NewAlg1 creates an Algorithm 1 machine for process me over an anonymous
// memory of m registers shared by n processes. It validates the paper's
// precondition m ∈ M(n), m ≥ n; AllowUnsafe sizes are deliberately not
// supported here — the experiments that need an illegal m (Theorem 5
// demonstrations) use NewAlg1Unchecked.
func NewAlg1(me id.ID, n, m int, cfg Alg1Config) (*Alg1Machine, error) {
	if err := mset.ValidateRW(n, m); err != nil {
		return nil, fmt.Errorf("core: algorithm 1 precondition: %w", err)
	}
	return NewAlg1Unchecked(me, m, cfg)
}

// NewAlg1Unchecked creates an Algorithm 1 machine without validating the
// m ∈ M(n) precondition. The lower-bound experiments use it to run the
// algorithm on memory sizes where the paper proves no algorithm can work
// (the machine remains safe; it just may livelock).
func NewAlg1Unchecked(me id.ID, m int, cfg Alg1Config) (*Alg1Machine, error) {
	if me.IsNone() {
		return nil, fmt.Errorf("core: algorithm 1 requires a process identity")
	}
	if m < 1 {
		return nil, fmt.Errorf("core: algorithm 1 requires m >= 1, got %d", m)
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Alg1Machine{
		me:     me,
		m:      m,
		cfg:    cfg,
		status: StatusIdle,
		phase:  a1Idle,
		view:   make([]id.ID, m),
	}, nil
}

// Me implements Machine.
func (a *Alg1Machine) Me() id.ID { return a.me }

// Status implements Machine.
func (a *Alg1Machine) Status() Status { return a.status }

// View returns the machine's current viewᵢ. The returned slice is the
// machine's own storage; callers must not modify it. For monitors and
// tests.
func (a *Alg1Machine) View() []id.ID { return a.view }

// StartLock implements Machine: begin lock() (lines 3–11).
func (a *Alg1Machine) StartLock() error {
	if a.status != StatusIdle {
		return fmt.Errorf("core: StartLock in status %v", a.status)
	}
	a.status = StatusRunning
	a.phase = a1Snapshot
	a.lockSteps = 0
	return nil
}

// StartUnlock implements Machine: begin unlock() (line 12), which is a
// shrink() over the final all-mine view.
func (a *Alg1Machine) StartUnlock() error {
	if a.status != StatusInCS {
		return fmt.Errorf("core: StartUnlock in status %v", a.status)
	}
	a.status = StatusRunning
	a.unlockShrink = true
	if !a.startShrink() {
		// Unreachable after a proper lock (the final view is all-mine),
		// but keep the machine total: nothing to erase means unlock is
		// complete.
		a.finishUnlock()
	}
	return nil
}

// StartAbort implements Machine: withdraw from an in-progress lock().
//
// The withdraw cannot trust viewᵢ — a claim written after the last
// snapshot (line 6) is not reflected in it — so instead of shrinking the
// view it sweeps all m registers with shrink's own discipline: read x,
// and write ⊥ only if x still holds idᵢ. Registers never hold idᵢ unless
// this process wrote it, and the withdrawing process writes nothing else,
// so after the sweep no register holds idᵢ: the process is invisible to
// every later snapshot, exactly as if it had never competed.
func (a *Alg1Machine) StartAbort() error {
	if a.status != StatusRunning || a.unlockShrink {
		return fmt.Errorf("core: StartAbort in status %v (withdraw applies only inside lock())", a.status)
	}
	a.cursor = 0
	a.phase = a1AbortRead
	return nil
}

// startShrink positions the cursor at the first view entry owned by me and
// enters the shrink read phase. It reports whether any entry is owned.
func (a *Alg1Machine) startShrink() bool {
	for x := 0; x < a.m; x++ {
		if a.view[x].Equal(a.me) {
			a.cursor = x
			a.phase = a1ShrinkRead
			return true
		}
	}
	return false
}

// advanceShrinkCursor moves the cursor to the next owned view entry after
// the current one, or ends the shrink.
func (a *Alg1Machine) advanceShrinkCursor() {
	for x := a.cursor + 1; x < a.m; x++ {
		if a.view[x].Equal(a.me) {
			a.cursor = x
			a.phase = a1ShrinkRead
			return
		}
	}
	// Shrink complete.
	if a.unlockShrink {
		a.finishUnlock()
		return
	}
	// Withdrawal shrink inside lock(): the line 11 until-condition is
	// false (the view is not all-mine), so re-enter the loop at line 4.
	a.phase = a1Snapshot
}

// advanceAbortCursor moves the withdraw sweep to the next register, or
// completes the abort: the machine returns to Idle with no register
// holding its identity.
func (a *Alg1Machine) advanceAbortCursor() {
	a.cursor++
	if a.cursor < a.m {
		a.phase = a1AbortRead
		return
	}
	a.status = StatusIdle
	a.phase = a1Idle
}

func (a *Alg1Machine) finishUnlock() {
	a.unlockShrink = false
	a.status = StatusIdle
	a.phase = a1Idle
}

// PendingOp implements Machine.
func (a *Alg1Machine) PendingOp() Op {
	switch a.phase {
	case a1Snapshot:
		return Op{Kind: OpSnapshot}
	case a1WriteClaim, a1SoloClaim:
		return Op{Kind: OpWrite, X: a.cursor, Val: a.me}
	case a1ShrinkRead:
		return Op{Kind: OpRead, X: a.cursor}
	case a1ShrinkWrite:
		return Op{Kind: OpWrite, X: a.cursor, Val: id.None}
	case a1AbortRead:
		return Op{Kind: OpRead, X: a.cursor}
	case a1AbortWrite:
		return Op{Kind: OpWrite, X: a.cursor, Val: id.None}
	default:
		panic(fmt.Sprintf("core: PendingOp on algorithm 1 machine in phase %d status %v", a.phase, a.status))
	}
}

// SweepCAS implements Machine: Algorithm 1 runs in the read/write model
// and never requests a compare&swap.
func (a *Alg1Machine) SweepCAS(CASMemory, int) (int, bool) { return 0, false }

// SweepRead implements Machine: Algorithm 1 waits on one snapshot a pass,
// and its reads (shrink, withdraw) alternate with writes.
func (a *Alg1Machine) SweepRead(ReadMemory, int) int { return 0 }

// Absent implements Machine. After a step that changed nothing the
// machine is about to snapshot again, and viewᵢ is the snapshot that step
// took, unless the step ended a withdrawal shrink (then viewᵢ still holds
// idᵢ). Without idᵢ and not all ⊥, that snapshot is the line 4 wait.
func (a *Alg1Machine) Absent() bool {
	return a.phase == a1Snapshot && !allBottom(a.view) && countOwned(a.view, a.me) == 0
}

// Advance implements Machine.
func (a *Alg1Machine) Advance(res OpResult) Status {
	if a.status != StatusRunning {
		panic(fmt.Sprintf("core: Advance on algorithm 1 machine in status %v", a.status))
	}
	if !a.unlockShrink {
		a.lockSteps++
	}
	switch a.phase {
	case a1Snapshot:
		a.onSnapshot(res.Snap)
	case a1WriteClaim:
		// Line 6 write done. The line 11 until-condition is evaluated on
		// viewᵢ from this iteration's snapshot, which contained a ⊥ (that
		// is why we wrote), so it is false: loop back to line 4.
		a.phase = a1Snapshot
	case a1SoloClaim:
		// Ablation claim sweep over an all-⊥ view: write every register,
		// then snapshot. (Unsafe; see Alg1Config.SoloClaimUnsafe.)
		a.cursor++
		if a.cursor == a.m {
			a.phase = a1Snapshot
		}
	case a1ShrinkRead:
		// shrink() line 2: write ⊥ only if the register still holds idᵢ.
		if res.Val.Equal(a.me) {
			a.phase = a1ShrinkWrite
		} else {
			a.advanceShrinkCursor()
		}
	case a1ShrinkWrite:
		a.advanceShrinkCursor()
	case a1AbortRead:
		if res.Val.Equal(a.me) {
			a.phase = a1AbortWrite
		} else {
			a.advanceAbortCursor()
		}
	case a1AbortWrite:
		a.advanceAbortCursor()
	default:
		panic(fmt.Sprintf("core: Advance on algorithm 1 machine in phase %d", a.phase))
	}
	return a.status
}

// onSnapshot runs the pure-local part of one iteration of the lines 3–11
// loop, starting from the snapshot result: the line 4 until-condition, the
// line 5 full-view test, competitor counting and the withdrawal decision
// (lines 8–9), and the line 11 exit condition.
func (a *Alg1Machine) onSnapshot(snap []id.ID) {
	copy(a.view, snap)
	owned := countOwned(a.view, a.me)

	// Line 4 (inner until): keep snapshotting unless pᵢ is present or the
	// memory is empty.
	if owned == 0 {
		if !allBottom(a.view) {
			a.phase = a1Snapshot
			return
		}
		if a.cfg.SoloClaimUnsafe {
			// Ablation: claim every register of the all-⊥ view in one write
			// sweep. Unsafe — see Alg1Config.SoloClaimUnsafe; the entry
			// condition (an all-mine snapshot) is NOT enough to restore
			// mutual exclusion once multiple stale writes are in flight.
			a.cursor = 0
			a.phase = a1SoloClaim
			return
		}
	}

	// Line 5: is there a hole to claim?
	if x, ok := a.chooseBottom(); ok {
		a.cursor = x
		a.phase = a1WriteClaim
		return
	}

	// Lines 7–9: the view is full; withdraw if below the average.
	cnt := distinctOwners(a.view) // line 8: number of current competitors
	if a.shouldWithdraw(owned, cnt) {
		if !a.startShrink() {
			// owned > 0 is guaranteed by the line 4 condition on a full
			// view, so there is always something to shrink.
			panic("core: withdrawal with no owned registers")
		}
		return
	}

	// Line 11: enter the critical section iff the snapshot is all-mine.
	if allMine(a.view, a.me) {
		a.ownedAtEntry = owned
		a.status = StatusInCS
		a.phase = a1InCS
		return
	}
	a.phase = a1Snapshot
}

// chooseBottom picks a ⊥ entry of the view per the configured policy.
func (a *Alg1Machine) chooseBottom() (int, bool) {
	switch a.cfg.Choice {
	case ChooseFirstBottom:
		for x := 0; x < a.m; x++ {
			if a.view[x].IsNone() {
				return x, true
			}
		}
	case ChooseLastBottom:
		for x := a.m - 1; x >= 0; x-- {
			if a.view[x].IsNone() {
				return x, true
			}
		}
	case ChooseRandomBottom:
		if a.holes == nil {
			a.holes = make([]int, 0, a.m)
		}
		holes := a.holes[:0]
		for x := 0; x < a.m; x++ {
			if a.view[x].IsNone() {
				holes = append(holes, x)
			}
		}
		if len(holes) > 0 {
			return holes[a.cfg.Rand.Intn(len(holes))], true
		}
	}
	return 0, false
}

// shouldWithdraw evaluates line 9 under the configured tie-break rule. The
// paper's rule is owned < m/cnt, computed exactly as owned·cnt < m.
func (a *Alg1Machine) shouldWithdraw(owned, cnt int) bool {
	switch a.cfg.Tie {
	case TieBreakAverage:
		return owned*cnt < a.m
	case TieBreakNever:
		return false
	case TieBreakRandom:
		return owned < a.m && a.cfg.Rand.Bool()
	default:
		panic(fmt.Sprintf("core: unknown tie-break %v", a.cfg.Tie))
	}
}

// Line implements Machine (diagnostic paper-line mapping).
func (a *Alg1Machine) Line() int {
	switch a.phase {
	case a1Idle:
		return 0
	case a1Snapshot:
		return 4
	case a1WriteClaim, a1SoloClaim:
		return 6
	case a1ShrinkRead, a1ShrinkWrite:
		if a.unlockShrink {
			return 12
		}
		return 9
	case a1AbortRead, a1AbortWrite:
		return 9 // the withdraw reuses shrink's read-then-erase discipline
	case a1InCS:
		return 11
	default:
		return -1
	}
}

// LockSteps implements Machine.
func (a *Alg1Machine) LockSteps() int { return a.lockSteps }

// OwnedAtEntry implements Machine.
func (a *Alg1Machine) OwnedAtEntry() int { return a.ownedAtEntry }

// Clone implements Machine.
func (a *Alg1Machine) Clone() Machine {
	c := *a
	c.view = make([]id.ID, len(a.view))
	copy(c.view, a.view)
	c.holes = nil // scratch; lazily reallocated, never shared
	return &c
}

// AppendState implements Machine. Diagnostic counters (LockSteps,
// OwnedAtEntry) are deliberately excluded: they do not influence
// transitions, and including them would make every state unique, defeating
// cycle detection.
func (a *Alg1Machine) AppendState(dst []byte) []byte {
	dst = append(dst, byte(a.status), byte(a.phase))
	dst = appendUint16(dst, id.Handle(a.me))
	dst = appendInt(dst, a.cursor)
	if a.unlockShrink {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return appendView(dst, a.view)
}
