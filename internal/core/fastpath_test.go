package core

// Unit tests for the uncontended fast path (Algorithm 2's SoloFastPath)
// and the SoloClaimUnsafe ablation: exact solo op counts, the contended
// fall-back, and withdraw-from-fast-path behavior. The exhaustive
// interleaving coverage lives in internal/explore
// (TestAlg2SoloFastPathExhaustive, TestAlg1SoloClaimUnsafe).

import (
	"testing"

	"anonmutex/internal/id"
)

// driveVM runs one machine invocation against vals (a plain value array
// standing in for the memory, identity-permuted), returning the op count.
func driveVM(t *testing.T, m Machine, vals []id.ID) int {
	t.Helper()
	steps := 0
	for m.Status() == StatusRunning {
		op := m.PendingOp()
		var res OpResult
		switch op.Kind {
		case OpRead:
			res.Val = vals[op.X]
		case OpWrite:
			vals[op.X] = op.Val
		case OpCAS:
			if vals[op.X].Equal(op.Old) {
				vals[op.X] = op.New
				res.Swapped = true
			}
		case OpSnapshot:
			snap := make([]id.ID, len(vals))
			copy(snap, vals)
			res.Snap = snap
		}
		m.Advance(res)
		steps++
		if steps > 10000 {
			t.Fatal("runaway invocation")
		}
	}
	return steps
}

func TestAlg2SoloFastPathStepCount(t *testing.T) {
	g := id.NewGenerator()
	for _, m := range []int{1, 3, 5} {
		mach, err := NewAlg2Unchecked(g.MustNew(), m, Alg2Config{SoloFastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]id.ID, m)
		if err := mach.StartLock(); err != nil {
			t.Fatal(err)
		}
		steps := driveVM(t, mach, vals)
		if mach.Status() != StatusInCS {
			t.Fatalf("m=%d: status %v after solo lock", m, mach.Status())
		}
		if steps != m {
			t.Errorf("m=%d: solo fast-path lock took %d ops, want m = %d", m, steps, m)
		}
		if mach.OwnedAtEntry() != m {
			t.Errorf("m=%d: OwnedAtEntry = %d, want %d", m, mach.OwnedAtEntry(), m)
		}
		for x, v := range vals {
			if !v.Equal(mach.Me()) {
				t.Errorf("m=%d: register %d = %v after solo entry", m, x, v)
			}
		}
		if err := mach.StartUnlock(); err != nil {
			t.Fatal(err)
		}
		driveVM(t, mach, vals)
		for x, v := range vals {
			if !v.IsNone() {
				t.Errorf("m=%d: register %d = %v after unlock", m, x, v)
			}
		}
	}
}

// TestAlg2SoloFastPathLostCAS: a single lost CAS must send the machine
// down the ordinary collect path, not into the critical section.
func TestAlg2SoloFastPathLostCAS(t *testing.T) {
	g := id.NewGenerator()
	mach, err := NewAlg2Unchecked(g.MustNew(), 3, Alg2Config{SoloFastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	rival := g.MustNew()
	vals := []id.ID{id.None, rival, id.None} // one register already claimed
	if err := mach.StartLock(); err != nil {
		t.Fatal(err)
	}
	// Drive the CAS sweep only: 3 ops.
	for i := 0; i < 3; i++ {
		op := mach.PendingOp()
		if op.Kind != OpCAS {
			t.Fatalf("op %d: kind %v, want cas", i, op.Kind)
		}
		var res OpResult
		if vals[op.X].Equal(op.Old) {
			vals[op.X] = op.New
			res.Swapped = true
		}
		mach.Advance(res)
	}
	if mach.Status() != StatusRunning {
		t.Fatalf("status %v after contested sweep, want running (collect)", mach.Status())
	}
	if mach.PendingOp().Kind != OpRead {
		t.Fatalf("post-sweep op %v, want the line 3 collect read", mach.PendingOp().Kind)
	}
}

// TestAlg2SoloFastPathAbortMidSweep: StartAbort during the fast-path CAS
// sweep must erase every claimed register.
func TestAlg2SoloFastPathAbortMidSweep(t *testing.T) {
	g := id.NewGenerator()
	mach, err := NewAlg2Unchecked(g.MustNew(), 3, Alg2Config{SoloFastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]id.ID, 3)
	if err := mach.StartLock(); err != nil {
		t.Fatal(err)
	}
	// Execute 2 of the 3 CASes, then withdraw.
	for i := 0; i < 2; i++ {
		op := mach.PendingOp()
		vals[op.X] = op.New
		mach.Advance(OpResult{Swapped: true})
	}
	if err := mach.StartAbort(); err != nil {
		t.Fatal(err)
	}
	driveVM(t, mach, vals)
	if mach.Status() != StatusIdle {
		t.Fatalf("status %v after withdraw", mach.Status())
	}
	for x, v := range vals {
		if !v.IsNone() {
			t.Errorf("register %d = %v after withdraw, want ⊥", x, v)
		}
	}
}

// TestAlg1SoloClaimStepCount covers the SoloClaimUnsafe ablation's solo
// mechanics (it is only ever run in simulation; see
// explore.TestAlg1SoloClaimUnsafe for why it must not ship).
func TestAlg1SoloClaimStepCount(t *testing.T) {
	g := id.NewGenerator()
	for _, m := range []int{3, 5} {
		mach, err := NewAlg1Unchecked(g.MustNew(), m, Alg1Config{SoloClaimUnsafe: true})
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]id.ID, m)
		if err := mach.StartLock(); err != nil {
			t.Fatal(err)
		}
		steps := driveVM(t, mach, vals)
		if mach.Status() != StatusInCS {
			t.Fatalf("m=%d: status %v after solo lock", m, mach.Status())
		}
		// One all-⊥ snapshot, m claim writes, one all-mine snapshot.
		if want := m + 2; steps != want {
			t.Errorf("m=%d: solo fast-path lock took %d ops, want m+2 = %d", m, steps, want)
		}
		if mach.OwnedAtEntry() != m {
			t.Errorf("m=%d: OwnedAtEntry = %d, want %d", m, mach.OwnedAtEntry(), m)
		}
		if err := mach.StartUnlock(); err != nil {
			t.Fatal(err)
		}
		driveVM(t, mach, vals)
		for x, v := range vals {
			if !v.IsNone() {
				t.Errorf("m=%d: register %d = %v after unlock", m, x, v)
			}
		}
	}
}

// TestAlg1SoloClaimContested: if a rival claims a register between the
// all-⊥ snapshot and the end of the claim sweep, the machine must fall
// back to the ordinary protocol and not enter on a non-all-mine view.
func TestAlg1SoloClaimContested(t *testing.T) {
	g := id.NewGenerator()
	mach, err := NewAlg1Unchecked(g.MustNew(), 3, Alg1Config{SoloClaimUnsafe: true})
	if err != nil {
		t.Fatal(err)
	}
	rival := g.MustNew()
	vals := make([]id.ID, 3)
	if err := mach.StartLock(); err != nil {
		t.Fatal(err)
	}
	// All-⊥ snapshot → solo claim begins.
	op := mach.PendingOp()
	if op.Kind != OpSnapshot {
		t.Fatalf("first op %v, want snapshot", op.Kind)
	}
	mach.Advance(OpResult{Snap: []id.ID{id.None, id.None, id.None}})
	// Rival overwrites register 2 mid-sweep (last writer wins on RW
	// registers).
	for i := 0; i < 3; i++ {
		op := mach.PendingOp()
		if op.Kind != OpWrite {
			t.Fatalf("claim op %d: kind %v, want write", i, op.Kind)
		}
		vals[op.X] = op.Val
		mach.Advance(OpResult{})
	}
	vals[2] = rival
	// Next snapshot is not all-mine: the machine must keep running.
	op = mach.PendingOp()
	if op.Kind != OpSnapshot {
		t.Fatalf("post-claim op %v, want snapshot", op.Kind)
	}
	snap := make([]id.ID, 3)
	copy(snap, vals)
	mach.Advance(OpResult{Snap: snap})
	if mach.Status() != StatusRunning {
		t.Fatalf("status %v on a contested view, want running", mach.Status())
	}
}

// TestAlg2ViewMadeAtFirstCollect: the fast path never reads the memory
// back, so a machine that only ever takes it never makes viewᵢ; the
// first line 3 collect makes it. Until then the state encodes the view
// as all ⊥, exactly as a made one reads before its first collect, so the
// model checker's state space does not see the difference.
func TestAlg2ViewMadeAtFirstCollect(t *testing.T) {
	const m = 3
	g := id.NewGenerator()
	mach, err := NewAlg2Unchecked(g.MustNew(), m, Alg2Config{SoloFastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	made := *mach
	made.view = make([]id.ID, m)
	if got, want := string(mach.AppendState(nil)), string(made.AppendState(nil)); got != want {
		t.Fatalf("state without a view %x, with an all-⊥ one %x", got, want)
	}

	vals := make([]id.ID, m)
	for cycle := 0; cycle < 3; cycle++ {
		if err := mach.StartLock(); err != nil {
			t.Fatal(err)
		}
		if ops := driveVM(t, mach, vals); ops != m {
			t.Fatalf("cycle %d: solo lock took %d ops, want the fast path's %d", cycle, ops, m)
		}
		if err := mach.StartUnlock(); err != nil {
			t.Fatal(err)
		}
		driveVM(t, mach, vals)
		if mach.View() != nil {
			t.Fatalf("cycle %d: the fast path made viewᵢ", cycle)
		}
	}

	vals[1] = g.MustNew() // a rival holds one register: the sweep loses a CAS
	if err := mach.StartLock(); err != nil {
		t.Fatal(err)
	}
	for mach.PendingOp().Kind == OpCAS {
		op := mach.PendingOp()
		var res OpResult
		if vals[op.X].Equal(op.Old) {
			vals[op.X] = op.New
			res.Swapped = true
		}
		mach.Advance(res)
	}
	if v := mach.View(); len(v) != m {
		t.Fatalf("at the first collect viewᵢ = %v, want %d entries", v, m)
	}
}
