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
// machines, on the simulator every other schedule runs on (internal/sched:
// the lock-step policy, the rotation adversary, and its cycle detection),
// and reports which horn of the dichotomy occurred:
//
//   - the paper's Algorithms 1 and 2 are safe, so on ℓ | m they take the
//     livelock horn, detected as a repeated global state;
//   - the deliberately broken strawman protocol takes the
//     simultaneous-entry horn: all ℓ processes enter in the same round.
//
// Alongside the verdict, Run verifies the proof's key invariant at every
// round boundary: the memory contents are invariant under rotation
// by m/ℓ composed with the identity relabeling pᵢ ↦ pᵢ₊₁ — an executable
// check of the "processes at the same state" argument.
package lowerbound

import (
	"fmt"

	"anonmutex"
	"anonmutex/internal/id"
	"anonmutex/internal/perm"
	"anonmutex/internal/sched"
	"anonmutex/mnum"
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
	if maxRounds <= 0 {
		maxRounds = 50_000
	}
	factory, err := sched.Factory(alg, l, m, true)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Alg: alg, L: l, M: m, Applicable: m%l == 0, Step: 1, SymmetryHeld: true}
	if v.Applicable {
		v.Step = m / l
	}
	r, err := sched.New(sched.Config{
		N: l, M: m,
		NewMachine:   factory,
		Adversary:    perm.RotationAdversary{Step: v.Step},
		Policy:       sched.NewLockStep(l),
		DetectCycles: true,
		MaxSteps:     maxRounds * l,
	})
	if err != nil {
		return Verdict{}, fmt.Errorf("lowerbound: %w", err)
	}

	// A round is ℓ steps, one per process. The run stops at the end of
	// the first round in which someone entered, so no process is ever
	// scheduled inside the CS.
	for steps := 1; ; steps++ {
		more, err := r.Step()
		if err != nil {
			return Verdict{}, fmt.Errorf("lowerbound: %w", err)
		}
		if !more {
			// The state repeated (in lock step, the round boundaries
			// repeat from this round on), or the round bound was hit.
			res := r.Result()
			v.Rounds = (res.Steps + l - 1) / l
			v.Outcome = OutcomeUndecided
			if res.CycleDetected {
				v.Outcome = OutcomeLivelock
			}
			return v, nil
		}
		if steps%l != 0 {
			continue
		}
		v.Rounds = steps / l
		res := r.Result()
		if res.Entries > 0 {
			v.Entrants = res.Entries
			if res.Entries == l {
				v.Outcome = OutcomeSimultaneousEntry
			} else {
				v.Outcome = OutcomeEntry
			}
			return v, nil
		}
		if v.Applicable && !symmetric(res.FinalValues, res.PerProc, v.Step) {
			v.SymmetryHeld = false
		}
	}
}

// symmetric checks the proof's invariant: rotating the memory by step maps
// it onto itself with every identity advanced to the next process on the
// ring (pᵢ ↦ pᵢ₊₁, ⊥ ↦ ⊥).
func symmetric(values []id.ID, procs []sched.ProcStats, step int) bool {
	m := len(values)
	sigma := func(v id.ID) id.ID {
		if v.IsNone() {
			return v
		}
		for i := range procs {
			if v.Equal(procs[i].ID) {
				return procs[(i+1)%len(procs)].ID
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
		e := GridEntry{M: m, InM: mnum.InM(n, m)}
		l := n
		if w, bad := mnum.Witness(n, m); bad {
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
