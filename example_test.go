package anonmutex_test

import (
	"fmt"
	"sync"

	"anonmutex"
	"anonmutex/mnum"
)

// The basic usage pattern: one lock, one process handle per goroutine.
func ExampleNewRWLock() {
	lock, err := anonmutex.NewRWLock(2) // m = 3 anonymous RW registers
	if err != nil {
		fmt.Println(err)
		return
	}
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		p, err := lock.NewProcess()
		if err != nil {
			fmt.Println(err)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				_ = p.Lock()
				counter++
				_ = p.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Println("counter:", counter)
	// Output: counter: 200
}

// The RMW lock works even on a single anonymous register (1 ∈ M(n)).
func ExampleNewRMWLock() {
	lock, err := anonmutex.NewRMWLock(3, anonmutex.WithRegisters(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	p, _ := lock.NewProcess()
	_ = p.Lock()
	fmt.Println("owned at entry:", p.OwnedAtEntry(), "of", lock.M())
	_ = p.Unlock()
	// Output: owned at entry: 1 of 1
}

// M(n) membership explains which memory sizes are solvable.
func ExampleNewRWLock_validation() {
	_, err := anonmutex.NewRWLock(2, anonmutex.WithRegisters(4))
	fmt.Println("m=4 legal:", err == nil)
	fmt.Println("m=5 in M(2):", mnum.InM(2, 5))
	fmt.Println("smallest legal m for n=6:", mnum.MinRW(6))
	// Output:
	// m=4 legal: false
	// m=5 in M(2): true
	// smallest legal m for n=6: 7
}
