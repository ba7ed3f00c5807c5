package scenario_test

import (
	"fmt"

	"anonmutex"
	"anonmutex/internal/scenario"
)

// Exhaustive verification of a small configuration: every interleaving
// of a scenario, model-checked (anonsim -check from the command line).
func ExampleCheck() {
	res, err := scenario.Check(scenario.Spec{Algorithm: anonmutex.RMW, N: 2, M: 3})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("complete:", res.Complete)
	fmt.Println("mutual exclusion violations:", res.MEViolations)
	fmt.Println("progress traps:", res.Traps)
	// Output:
	// complete: true
	// mutual exclusion violations: 0
	// progress traps: 0
}
