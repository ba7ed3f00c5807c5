package anonmutex_test

// Cross-module integration tests: the public locks against the simulated
// substrate, adversarial conditions on real hardware, and agreement
// between the two execution substrates.

import (
	"sync"
	"testing"
	"time"

	"anonmutex"
	"anonmutex/internal/scenario"
)

// TestSubstrateAgreementSolo: a solo, deterministic acquisition must cost
// exactly the same number of shared-memory steps on the real lock
// (hardware atomics) and in the simulator — 2m+1 for Algorithm 1, 2m for
// Algorithm 2 run without its solo fast path (the simulator runs the
// paper's algorithm verbatim). The default RMW lock enables the fast
// path and must enter in exactly m operations.
func TestSubstrateAgreementSolo(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		m := anonmutex.MinRegistersRW(n)

		rw, err := anonmutex.NewRWLock(n, anonmutex.WithDeterministicClaims(),
			anonmutex.WithPermutations(anonmutex.PermIdentity, 0))
		if err != nil {
			t.Fatal(err)
		}
		p, err := rw.NewProcess()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Lock(); err != nil {
			t.Fatal(err)
		}
		realSteps := p.LockSteps()
		if err := p.Unlock(); err != nil {
			t.Fatal(err)
		}

		simRes, err := scenario.RunSim(scenario.Spec{Algorithm: anonmutex.RW, N: 1, M: m, Unchecked: true})
		if err != nil {
			t.Fatal(err)
		}
		if realSteps != simRes.PerProc[0].LockSteps {
			t.Errorf("n=%d: real lock used %d steps, simulator %d", n, realSteps, simRes.PerProc[0].LockSteps)
		}
		if want := 2*m + 1; realSteps != want {
			t.Errorf("n=%d: solo RW steps = %d, want 2m+1 = %d", n, realSteps, want)
		}

		rmw, err := anonmutex.NewRMWLock(n, anonmutex.WithoutSoloFastPath())
		if err != nil {
			t.Fatal(err)
		}
		q, err := rmw.NewProcess()
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Lock(); err != nil {
			t.Fatal(err)
		}
		if want := 2 * rmw.M(); q.LockSteps() != want {
			t.Errorf("n=%d: solo RMW steps = %d, want 2m = %d", n, q.LockSteps(), want)
		}
		if err := q.Unlock(); err != nil {
			t.Fatal(err)
		}

		fast, err := anonmutex.NewRMWLock(n)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fast.NewProcess()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Lock(); err != nil {
			t.Fatal(err)
		}
		if want := fast.M(); f.LockSteps() != want {
			t.Errorf("n=%d: solo fast-path RMW steps = %d, want m = %d", n, f.LockSteps(), want)
		}
		if got := f.OwnedAtEntry(); got != fast.M() {
			t.Errorf("n=%d: solo fast-path OwnedAtEntry = %d, want m = %d", n, got, fast.M())
		}
		if err := f.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRealLockUnderStalls: a process that goes to sleep while competing
// (asynchrony) must not block others, and a process sleeping INSIDE the
// critical section must block everyone — both are the model's intended
// semantics.
func TestRealLockUnderStalls(t *testing.T) {
	lock, err := anonmutex.NewRMWLock(3)
	if err != nil {
		t.Fatal(err)
	}
	holder, err := lock.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := lock.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Lock(); err != nil {
		t.Fatal(err)
	}

	acquired := make(chan struct{})
	go func() {
		if err := waiter.Lock(); err != nil {
			t.Error(err)
		}
		close(acquired)
		if err := waiter.Unlock(); err != nil {
			t.Error(err)
		}
	}()

	select {
	case <-acquired:
		t.Fatal("waiter acquired while holder was in the CS")
	case <-time.After(30 * time.Millisecond):
	}
	if err := holder.Unlock(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never acquired after unlock — deadlock-freedom violated")
	}
}

// TestRotationRingOnRealHardware: the Theorem 5 adversary (rotation
// permutations on a divisible... here legal m) cannot break the real
// locks: the Go scheduler's asynchrony breaks lock-step symmetry.
func TestRotationRingOnRealHardware(t *testing.T) {
	for _, alg := range []anonmutex.Algorithm{anonmutex.RW, anonmutex.RMW} {
		ps := newProcs(t, alg, 2, anonmutex.WithRegisters(3),
			anonmutex.WithPermutations(anonmutex.PermRotation, 1))
		counter := 0
		var wg sync.WaitGroup
		for _, p := range ps {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if err := p.Lock(); err != nil {
						t.Error(err)
						return
					}
					counter++
					if err := p.Unlock(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if counter != 400 {
			t.Fatalf("counter = %d, want 400", counter)
		}
	}
}

// TestIndependentLocksDoNotInterfere: two separate anonymous memories
// guard two separate counters; goroutines use both.
func TestIndependentLocksDoNotInterfere(t *testing.T) {
	const n, iters = 2, 150
	l1, err := anonmutex.NewRMWLock(n)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := anonmutex.NewRMWLock(n, anonmutex.WithRegisters(1))
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		p1, err := l1.NewProcess()
		if err != nil {
			t.Fatal(err)
		}
		p2, err := l2.NewProcess()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				if err := p1.Lock(); err != nil {
					t.Error(err)
					return
				}
				c1++
				if err := p1.Unlock(); err != nil {
					t.Error(err)
					return
				}
				if err := p2.Lock(); err != nil {
					t.Error(err)
					return
				}
				c2++
				if err := p2.Unlock(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c1 != n*iters || c2 != n*iters {
		t.Fatalf("counters = %d, %d; want %d each", c1, c2, n*iters)
	}
}

// TestManySessionsReuse: process handles survive thousands of sessions
// and the memory always returns to all-⊥ between solo sessions.
func TestManySessionsReuse(t *testing.T) {
	lock, err := anonmutex.NewRWLock(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lock.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := p.Lock(); err != nil {
			t.Fatal(err)
		}
		if err := p.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.OwnedAtEntry(); got != lock.M() {
		t.Errorf("OwnedAtEntry = %d after reuse", got)
	}
}

// TestSimLockStepWedgeMatchesModelCheckTrap: the two verification
// methods must agree about illegal sizes: the scheduler's lock-step cycle
// detection and the model checker's trap detection both condemn m=4, n=2
// for the RW algorithm.
func TestSimLockStepWedgeMatchesModelCheckTrap(t *testing.T) {
	wedge, err := scenario.RunSim(scenario.Spec{
		Algorithm: anonmutex.RW, N: 2, M: 4, Unchecked: true,
		Schedule: scenario.SchedLockStep, Perms: scenario.PermsRotation, RotationStep: 2,
		DetectCycles: true, MaxSteps: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := scenario.Check(scenario.Spec{Algorithm: anonmutex.RW, N: 2, M: 4, Unchecked: true})
	if err != nil {
		t.Fatal(err)
	}
	if !wedge.CycleDetected {
		t.Error("scheduler found no livelock cycle")
	}
	if checked.Traps == 0 {
		t.Error("model checker found no trap")
	}
	if wedge.Entries != 0 {
		t.Error("entries occurred inside the wedge")
	}
}

// TestPublicConstantsAgree: the public minimum-size helpers must agree
// with the locks' automatic choices.
func TestPublicConstantsAgree(t *testing.T) {
	for n := 2; n <= 12; n++ {
		rw, err := anonmutex.NewRWLock(n)
		if err != nil {
			t.Fatal(err)
		}
		if rw.M() != anonmutex.MinRegistersRW(n) {
			t.Errorf("n=%d: RWLock chose m=%d, MinRegistersRW=%d", n, rw.M(), anonmutex.MinRegistersRW(n))
		}
		rmw, err := anonmutex.NewRMWLock(n)
		if err != nil {
			t.Fatal(err)
		}
		if rmw.M() != anonmutex.MinRegistersRMW(n) {
			t.Errorf("n=%d: RMWLock chose m=%d, MinRegistersRMW=%d", n, rmw.M(), anonmutex.MinRegistersRMW(n))
		}
	}
}
