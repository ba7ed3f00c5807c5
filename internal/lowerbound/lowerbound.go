// Package lowerbound makes the paper's Theorem 5 executable.
//
// Theorem 5: no symmetric deadlock-free mutual exclusion algorithm exists
// for n processes over m anonymous RMW registers when m ∉ M(n). The proof
// arranges the m registers on a ring, picks ℓ | m processes (1 < ℓ ≤ n),
// gives process i the rotation-by-i·(m/ℓ) permutation, and runs the
// processes in lock steps. Symmetry (equality-only identities, common
// initial value ⊥) then forces the ℓ processes through isomorphic states
// forever, so either all enter the critical section together (violating
// mutual exclusion) or none ever does (violating deadlock-freedom).
//
// This package runs exactly that construction against real protocol
// machines and reports which horn of the dichotomy occurred:
//
//   - the paper's Algorithms 1 and 2 are safe, so on ℓ | m they take the
//     livelock horn, detected as a repeated global state;
//   - the deliberately broken strawman protocol takes the
//     simultaneous-entry horn: all ℓ processes enter in the same round.
//
// Alongside the verdict, the driver verifies the proof's key invariant at
// every round boundary: the memory contents are invariant under rotation
// by m/ℓ composed with the identity relabeling pᵢ ↦ pᵢ₊₁ — an executable
// check of the "processes at the same state" argument.
package lowerbound

import (
	"fmt"

	"anonmutex"
	"anonmutex/internal/core"
	"anonmutex/internal/id"
	"anonmutex/internal/mset"
	"anonmutex/internal/perm"
	"anonmutex/internal/sched"
	"anonmutex/internal/vmem"
)

// Outcome is the observed horn of the Theorem 5 dichotomy.
type Outcome uint8

// Possible outcomes.
const (
	// OutcomeLivelock: the global state repeated with no entries — no
	// invocation will ever complete (deadlock-freedom horn).
	OutcomeLivelock Outcome = iota + 1
	// OutcomeSimultaneousEntry: all ℓ processes entered the critical
	// section in the same round (mutual-exclusion horn).
	OutcomeSimultaneousEntry
	// OutcomeEntry: some, but not all, processes entered — symmetry was
	// broken. Expected exactly when the construction does not apply
	// (ℓ ∤ m).
	OutcomeEntry
	// OutcomeUndecided: the round bound was reached first.
	OutcomeUndecided
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeLivelock:
		return "livelock"
	case OutcomeSimultaneousEntry:
		return "simultaneous-entry"
	case OutcomeEntry:
		return "entry"
	case OutcomeUndecided:
		return "undecided"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Verdict reports one run of the construction.
type Verdict struct {
	Alg  anonmutex.Algorithm
	L, M int
	// Step is the ring distance between consecutive processes' initial
	// registers: m/ℓ when ℓ | m (the theorem's placement), 1 otherwise.
	Step int
	// Applicable reports whether ℓ | m, i.e. whether the theorem's
	// construction applies and symmetry is provably unbreakable.
	Applicable bool
	Outcome    Outcome
	Rounds     int
	// Entrants is how many processes were inside the CS when the run
	// stopped.
	Entrants int
	// SymmetryHeld reports that the rotational-symmetry invariant held at
	// every checked round boundary (only checked when Applicable).
	SymmetryHeld bool
}

// Run executes the construction for the given protocol with ℓ processes on
// m registers, bounded by maxRounds lock-step rounds.
func Run(alg anonmutex.Algorithm, l, m, maxRounds int) (Verdict, error) {
	if l < 2 {
		return Verdict{}, fmt.Errorf("lowerbound: need at least 2 processes, got %d", l)
	}
	if m < 1 {
		return Verdict{}, fmt.Errorf("lowerbound: need at least 1 register, got %d", m)
	}
	if maxRounds <= 0 {
		maxRounds = 50_000
	}
	factory, err := sched.Factory(alg, l, m, true)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Alg: alg, L: l, M: m, Applicable: m%l == 0, SymmetryHeld: true}
	if v.Applicable {
		v.Step = m / l
	} else {
		v.Step = 1
	}

	mem := vmem.New(m, false)
	gen := id.NewGenerator()
	ids := make([]id.ID, l)
	machines := make([]core.Machine, l)
	views := make([]*vmem.View, l)
	snapBufs := make([][]id.ID, l)
	for i := 0; i < l; i++ {
		ids[i] = gen.MustNew()
		machines[i], err = factory(i, ids[i])
		if err != nil {
			return Verdict{}, fmt.Errorf("lowerbound: building machine %d: %w", i, err)
		}
		views[i], err = mem.NewView(ids[i], perm.Rotation(m, i*v.Step))
		if err != nil {
			return Verdict{}, fmt.Errorf("lowerbound: view %d: %w", i, err)
		}
		snapBufs[i] = make([]id.ID, m)
		if err := machines[i].StartLock(); err != nil {
			return Verdict{}, fmt.Errorf("lowerbound: starting lock %d: %w", i, err)
		}
	}

	seen := make(map[string]int, 1024)
	for round := 0; round < maxRounds; round++ {
		v.Rounds = round + 1
		inCS := 0
		for i := 0; i < l; i++ {
			mch := machines[i]
			if mch.Status() == core.StatusInCS {
				inCS++
				continue // an entered process stops taking steps
			}
			op := mch.PendingOp()
			var res core.OpResult
			switch op.Kind {
			case core.OpRead:
				res.Val = views[i].Read(op.X)
			case core.OpWrite:
				views[i].Write(op.X, op.Val)
			case core.OpCAS:
				res.Swapped = views[i].CompareAndSwap(op.X, op.Old, op.New)
			case core.OpSnapshot:
				snapBufs[i] = views[i].SnapshotAtomic(snapBufs[i])
				res.Snap = snapBufs[i]
			default:
				return Verdict{}, fmt.Errorf("lowerbound: unknown op %v", op.Kind)
			}
			if mch.Advance(res) == core.StatusInCS {
				inCS++
			}
		}

		if v.Applicable && inCS == 0 {
			if !symmetric(mem.Values(), ids, v.Step) {
				v.SymmetryHeld = false
			}
		}
		if inCS > 0 {
			v.Entrants = inCS
			if inCS == l {
				v.Outcome = OutcomeSimultaneousEntry
			} else {
				v.Outcome = OutcomeEntry
			}
			return v, nil
		}

		key := string(fingerprint(mem, machines))
		if _, dup := seen[key]; dup {
			v.Outcome = OutcomeLivelock
			return v, nil
		}
		seen[key] = round
	}
	v.Outcome = OutcomeUndecided
	return v, nil
}

// symmetric checks the proof's invariant: rotating the memory by step maps
// it onto itself with every identity advanced to the next process on the
// ring (pᵢ ↦ pᵢ₊₁, ⊥ ↦ ⊥).
func symmetric(values []id.ID, ids []id.ID, step int) bool {
	m := len(values)
	sigma := func(v id.ID) id.ID {
		if v.IsNone() {
			return v
		}
		for i := range ids {
			if v.Equal(ids[i]) {
				return ids[(i+1)%len(ids)]
			}
		}
		return v
	}
	for x := 0; x < m; x++ {
		if !values[(x+step)%m].Equal(sigma(values[x])) {
			return false
		}
	}
	return true
}

// fingerprint canonically encodes the global state at a round boundary.
func fingerprint(mem *vmem.Memory, machines []core.Machine) []byte {
	dst := mem.AppendState(nil)
	for _, m := range machines {
		dst = m.AppendState(dst)
	}
	return dst
}

// GridEntry pairs a memory size with the verdict of the construction most
// relevant for it: when m ∉ M(n) the ℓ is the smallest prime witness
// (which divides m); when m ∈ M(n) the construction cannot apply, so the
// run uses ℓ = n with step 1 and is expected to break symmetry and make
// progress.
type GridEntry struct {
	M       int
	InM     bool
	Witness int // the ℓ used
	Verdict Verdict
}

// Grid runs the construction for every m in [mLo, mHi] against a system of
// up to n processes, choosing ℓ as described on GridEntry. It reproduces
// the paper's boundary: livelock (or simultaneous entry for broken
// protocols) exactly when m ∉ M(n).
func Grid(alg anonmutex.Algorithm, n, mLo, mHi, maxRounds int) ([]GridEntry, error) {
	if n < 2 {
		return nil, fmt.Errorf("lowerbound: need n >= 2, got %d", n)
	}
	var out []GridEntry
	for m := mLo; m <= mHi; m++ {
		if m < 1 {
			continue
		}
		e := GridEntry{M: m, InM: mset.InM(n, m)}
		l := n
		if w, bad := mset.Witness(n, m); bad {
			l = w // smallest prime with gcd(l, m) > 1; it divides m
		}
		e.Witness = l
		v, err := Run(alg, l, m, maxRounds)
		if err != nil {
			return nil, err
		}
		e.Verdict = v
		out = append(out, e)
	}
	return out, nil
}
