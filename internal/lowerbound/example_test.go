package lowerbound_test

import (
	"fmt"

	"anonmutex"
	"anonmutex/internal/lowerbound"
)

// The Theorem 5 construction, one call.
func ExampleRun() {
	v, err := lowerbound.Run(anonmutex.RMW, 2, 4, 0) // ℓ=2 divides m=4
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("outcome:", v.Outcome)
	fmt.Println("symmetry held:", v.SymmetryHeld)
	// Output:
	// outcome: livelock
	// symmetry held: true
}
