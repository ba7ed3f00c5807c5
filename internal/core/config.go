package core

import (
	"fmt"

	"anonmutex/internal/xrand"
)

// ChoicePolicy selects which ⊥ register Algorithm 1 writes into at line 6.
// The paper allows "any not owned register"; the policy does not affect
// correctness (the proofs never rely on the choice) but does affect
// collision rates under contention — an ablation experiment (E8) measures
// the difference.
type ChoicePolicy uint8

const (
	// ChooseFirstBottom writes into the lowest ⊥ local index. Fully
	// deterministic; required for state-space exploration.
	ChooseFirstBottom ChoicePolicy = iota + 1
	// ChooseLastBottom writes into the highest ⊥ local index.
	ChooseLastBottom
	// ChooseRandomBottom writes into a uniformly random ⊥ local index,
	// drawn from the machine's PRNG. Reduces write collisions between
	// concurrent claimants in real runs.
	ChooseRandomBottom
)

// String returns the policy name.
func (c ChoicePolicy) String() string {
	switch c {
	case ChooseFirstBottom:
		return "first-bottom"
	case ChooseLastBottom:
		return "last-bottom"
	case ChooseRandomBottom:
		return "random-bottom"
	default:
		return fmt.Sprintf("ChoicePolicy(%d)", uint8(c))
	}
}

// TieBreak selects Algorithm 1's withdrawal rule at line 9. Only
// TieBreakAverage is the paper's algorithm; the others are ablations that
// demonstrate why the rule (and the m ∈ M(n) condition it leans on)
// matters.
type TieBreak uint8

const (
	// TieBreakAverage is the paper's rule: withdraw when this process owns
	// fewer than m/cnt registers (strictly below the average), evaluated
	// exactly as owned*cnt < m.
	TieBreakAverage TieBreak = iota + 1
	// TieBreakNever is an ablation: never withdraw. Under contention the
	// competition can wedge permanently (deadlock-freedom is lost).
	TieBreakNever
	// TieBreakRandom is an ablation: when the view is full and the process
	// does not own everything, withdraw with probability 1/2. Randomized
	// backoff breaks ties only probabilistically.
	TieBreakRandom
)

// String returns the rule name.
func (tb TieBreak) String() string {
	switch tb {
	case TieBreakAverage:
		return "average"
	case TieBreakNever:
		return "never"
	case TieBreakRandom:
		return "random"
	default:
		return fmt.Sprintf("TieBreak(%d)", uint8(tb))
	}
}

// Alg1Config configures an Algorithm 1 machine. The zero value selects the
// paper's algorithm (first-bottom choice, average tie-break).
type Alg1Config struct {
	// Choice picks the ⊥ register for line 6. Zero value:
	// ChooseFirstBottom.
	Choice ChoicePolicy
	// Tie picks the withdrawal rule for line 9. Zero value:
	// TieBreakAverage (the paper's rule).
	Tie TieBreak
	// Rand supplies randomness for the randomized policies. Required when
	// Choice is ChooseRandomBottom or Tie is TieBreakRandom.
	Rand *xrand.Rand
	// SoloClaimUnsafe is an ablation, NOT a fast path: a process whose
	// snapshot shows an entirely-⊥ memory claims all m registers in one
	// write sweep instead of one register per snapshot iteration. It
	// looks like the RW-model analog of Algorithm 2's solo fast path —
	// and the model checker proves it is wrong: plain writes issued from
	// a stale all-⊥ snapshot can overwrite a rival that already entered
	// on a legitimate all-mine snapshot, and the sweeper's own final
	// snapshot then shows all-mine too (TestAlg1SoloClaimUnsafe exhibits
	// the two-in-CS state exhaustively). Algorithm 1's mutual exclusion
	// genuinely relies on the one-claim-per-snapshot discipline; only the
	// CAS-armed RMW model can detect a lost race without re-reading.
	// Production locks never set this.
	SoloClaimUnsafe bool
}

func (c *Alg1Config) normalize() error {
	if c.Choice == 0 {
		c.Choice = ChooseFirstBottom
	}
	if c.Tie == 0 {
		c.Tie = TieBreakAverage
	}
	needsRand := c.Choice == ChooseRandomBottom || c.Tie == TieBreakRandom
	if needsRand && c.Rand == nil {
		return fmt.Errorf("core: randomized policy (%v/%v) requires a PRNG", c.Choice, c.Tie)
	}
	return nil
}

// Alg2Config configures an Algorithm 2 machine. The zero value is the
// paper's algorithm.
type Alg2Config struct {
	// SkipWaitForEmpty is an ablation: when a process resigns (line 7), it
	// skips the lines 8–10 wait loop and immediately re-enters the
	// competition. The paper's deadlock-freedom argument (Theorem 4)
	// relies on resigned processes standing aside; this ablation measures
	// what that buys.
	SkipWaitForEmpty bool
	// SoloFastPath enables the uncontended fast path: a process whose
	// line 2 sweep wins every one of its m compare&swaps enters the
	// critical section immediately, skipping the line 3 collect sweep —
	// m operations instead of 2m. This is safe without reading anything
	// back: a register can come to hold idᵢ only through pᵢ's own CAS,
	// and no other process ever overwrites a register holding a foreign
	// identity (line 2 CASes expect ⊥, lines 7/13 erase only the caller's
	// own identity), so m successful CASes mean pᵢ owns all m registers —
	// a strict majority — until it erases itself
	// (TestAlg2SoloFastPathExhaustive checks exhaustively).
	SoloFastPath bool
}
