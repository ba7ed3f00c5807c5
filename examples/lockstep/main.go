// Lockstep: watch the Theorem 5 lower bound happen.
//
// The paper proves no symmetric deadlock-free mutual exclusion algorithm
// can exist on m anonymous RMW registers when some ℓ ≤ n divides m: place
// the registers on a ring, give ℓ processes rotated views m/ℓ apart, and
// run them in lock step — symmetry can never break, so either everyone
// enters the critical section together or nobody ever does.
//
// This example runs the construction three ways:
//
//  1. Algorithm 2 on ℓ=3, m=6 — a safe algorithm takes the livelock horn;
//  2. a deliberately broken "greedy" protocol on the same ring — it takes
//     the simultaneous-entry horn, violating mutual exclusion;
//  3. Algorithm 2 on ℓ=3, m=7 ∈ M(3) — the construction cannot apply, the
//     2-2-3 ownership imbalance breaks the tie, somebody wins.
//
// Then it sweeps m = 1..20 and prints the livelock/progress boundary,
// which lands exactly on membership in M(n).
//
// Run with: go run ./examples/lockstep
package main

import (
	"fmt"
	"os"

	"anonmutex"
	"anonmutex/internal/lowerbound"
	"anonmutex/mnum"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lockstep:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("--- Theorem 5: the two horns of the dichotomy ---")

	v, err := lowerbound.Run(anonmutex.RMW, 3, 6, 0)
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm 2, ℓ=3 m=6 (3 | 6, step %d): %v after %d rounds; ring symmetry held: %v\n",
		v.Step, v.Outcome, v.Rounds, v.SymmetryHeld)

	g, err := lowerbound.Run(anonmutex.Greedy, 3, 6, 0)
	if err != nil {
		return err
	}
	fmt.Printf("greedy strawman, ℓ=3 m=6:            %v — %d of %d processes in the CS at once\n",
		g.Outcome, g.Entrants, g.L)

	ok, err := lowerbound.Run(anonmutex.RMW, 3, 7, 0)
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm 2, ℓ=3 m=7 ∈ M(3):         %v after %d rounds (7 has no divisor ≤ 3, symmetry must break)\n",
		ok.Outcome, ok.Rounds)

	fmt.Println()
	fmt.Println("--- the boundary: lock-step verdict vs membership in M(n), n=3 ---")
	fmt.Printf("%-4s %-8s %-9s %-20s %s\n", "m", "m∈M(3)", "ℓ used", "outcome", "rounds")
	entries, err := lowerbound.Grid(anonmutex.RMW, 3, 1, 20, 0)
	if err != nil {
		return err
	}
	mismatches := 0
	for _, e := range entries {
		fmt.Printf("%-4d %-8v %-9d %-20v %d\n", e.M, e.InM, e.Witness, e.Verdict.Outcome, e.Verdict.Rounds)
		livelocked := e.Verdict.Outcome == lowerbound.OutcomeLivelock
		if livelocked == e.InM {
			mismatches++
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d grid rows disagree with M(n) — reproduction failed", mismatches)
	}
	fmt.Println()
	fmt.Printf("boundary matches the paper exactly: livelock ⟺ m ∉ M(3) = %v ∪ {1}\n",
		mnum.Members(3, 5, 20))
	return nil
}
