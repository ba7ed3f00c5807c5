package anonmutex

import (
	"sync"
	"testing"
)

func TestNewRWLockDefaults(t *testing.T) {
	cases := []struct{ n, wantM int }{
		{2, 3}, {3, 5}, {4, 5}, {6, 7}, {10, 11},
	}
	for _, tc := range cases {
		l, err := NewRWLock(tc.n)
		if err != nil {
			t.Fatalf("NewRWLock(%d): %v", tc.n, err)
		}
		if l.M() != tc.wantM {
			t.Errorf("NewRWLock(%d).M() = %d, want %d", tc.n, l.M(), tc.wantM)
		}
		if l.N() != tc.n {
			t.Errorf("N() = %d", l.N())
		}
	}
}

func TestNewRWLockValidation(t *testing.T) {
	if _, err := NewRWLock(1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewRWLock(2, WithRegisters(4)); err == nil {
		t.Error("m=4 ∉ M(2) accepted")
	}
	if _, err := NewRWLock(4, WithRegisters(3)); err == nil {
		t.Error("m < n accepted")
	}
	if _, err := NewRWLock(2, WithRegisters(0)); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewRWLock(2, WithPermutations(PermutationMode(99), 0)); err == nil {
		t.Error("bad permutation mode accepted")
	}
	for _, step := range []int{0, -1} { // a rotation by 0 is the identity
		if _, err := NewRWLock(2, WithPermutations(PermRotation, step)); err == nil {
			t.Errorf("rotation step %d accepted", step)
		}
	}
	if _, err := NewRWLock(2, WithRegisters(9)); err != nil {
		t.Errorf("m=9 ∈ M(2) rejected: %v", err)
	}
	// Greedy is an algorithm the research harness runs, but no lock.
	for _, a := range []Algorithm{0, Greedy, Greedy + 1} {
		if _, err := NewLock(a, 2); err == nil {
			t.Errorf("NewLock accepted algorithm %v", a)
		}
	}
}

// TestParseAlgorithm: the three algorithm names round-trip through
// ParseAlgorithm and the text encoding; nothing else parses or encodes.
func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{RW, RMW, Greedy} {
		if got, err := ParseAlgorithm(a.String()); err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
		var back Algorithm
		if text, err := a.MarshalText(); err != nil || back.UnmarshalText(text) != nil || back != a {
			t.Errorf("%v does not round-trip as text: %q, %v, %v", a, text, err, back)
		}
	}
	for _, a := range []Algorithm{0, Greedy + 1} {
		if _, err := ParseAlgorithm(a.String()); err == nil {
			t.Errorf("ParseAlgorithm accepted %q", a.String())
		}
		if _, err := a.MarshalText(); err == nil {
			t.Errorf("MarshalText encoded %v", a)
		}
	}
	if _, err := ParseAlgorithm("x"); err == nil {
		t.Error("ParseAlgorithm accepted garbage")
	}
}

func TestNewRMWLockValidation(t *testing.T) {
	if _, err := NewRMWLock(1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewRMWLock(2, WithRegisters(2)); err == nil {
		t.Error("m=2 ∉ M(2) accepted")
	}
	l, err := NewRMWLock(3, WithRegisters(1))
	if err != nil {
		t.Fatalf("m=1 rejected: %v", err)
	}
	if l.M() != 1 {
		t.Errorf("M() = %d", l.M())
	}
	if l2, err := NewRMWLock(4); err != nil || l2.M() != 5 {
		t.Errorf("default RMW size for n=4: %d (err %v), want 5", l2.M(), err)
	}
}

func TestProcessLimit(t *testing.T) {
	l, err := NewRWLock(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.NewProcess(); err != nil {
			t.Fatalf("process %d rejected: %v", i, err)
		}
	}
	if _, err := l.NewProcess(); err == nil {
		t.Error("third process accepted on a 2-process lock")
	}
}

func TestLifecycleMisuse(t *testing.T) {
	l, _ := NewRWLock(2)
	p, err := l.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Unlock(); err == nil {
		t.Error("Unlock before Lock succeeded")
	}
	if err := p.Lock(); err != nil {
		t.Fatal(err)
	}
	if err := p.Lock(); err == nil {
		t.Error("recursive Lock succeeded")
	}
	if err := p.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := p.Unlock(); err == nil {
		t.Error("double Unlock succeeded")
	}
}

// newProcs makes an n-process lock running alg and all n of its handles.
func newProcs(t *testing.T, alg Algorithm, n int, opts ...Option) []*Process {
	t.Helper()
	l, err := NewLock(alg, n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*Process, n)
	for i := range procs {
		if procs[i], err = l.NewProcess(); err != nil {
			t.Fatal(err)
		}
	}
	return procs
}

// torture exercises a lock with one goroutine per handle incrementing a
// counter only the lock protects.
func torture(t *testing.T, procs []*Process, iters int) {
	t.Helper()
	counter := 0
	var wg sync.WaitGroup
	for _, p := range procs {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
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
	if counter != len(procs)*iters {
		t.Fatalf("counter = %d, want %d — mutual exclusion violated", counter, len(procs)*iters)
	}
}

func TestRWLockMutualExclusion(t *testing.T)  { torture(t, newProcs(t, RW, 3), 150) }
func TestRMWLockMutualExclusion(t *testing.T) { torture(t, newProcs(t, RMW, 4), 400) }
func TestRMWLockSingleRegister(t *testing.T)  { torture(t, newProcs(t, RMW, 3, WithRegisters(1)), 500) }

func TestPermutationModes(t *testing.T) {
	for _, mode := range []PermutationMode{PermRandom, PermIdentity, PermRotation} {
		torture(t, newProcs(t, RW, 2, WithPermutations(mode, 1), WithSeed(7)), 100)
	}
}

func TestDeterministicClaims(t *testing.T) {
	l, err := NewRWLock(2, WithDeterministicClaims())
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Lock(); err != nil {
		t.Fatal(err)
	}
	if err := p.Unlock(); err != nil {
		t.Fatal(err)
	}
}

func TestRWEntryCostIsAllRegisters(t *testing.T) {
	l, _ := NewRWLock(2, WithRegisters(5))
	p, err := l.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Lock(); err != nil {
		t.Fatal(err)
	}
	if got := p.OwnedAtEntry(); got != 5 {
		t.Errorf("OwnedAtEntry = %d, want 5 (all registers)", got)
	}
	if p.LockSteps() == 0 {
		t.Error("LockSteps = 0")
	}
	calls, collects := p.SnapshotStats()
	if calls == 0 || collects < 2*calls {
		t.Errorf("snapshot stats calls=%d collects=%d", calls, collects)
	}
	if err := p.Unlock(); err != nil {
		t.Fatal(err)
	}
}

func TestRMWEntryCostIsMajority(t *testing.T) {
	l, _ := NewRMWLock(2, WithRegisters(5))
	p, err := l.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Lock(); err != nil {
		t.Fatal(err)
	}
	got := p.OwnedAtEntry()
	if 2*got <= 5 {
		t.Errorf("OwnedAtEntry = %d, not a majority of 5", got)
	}
	if calls, collects := p.SnapshotStats(); calls != 0 || collects != 0 {
		t.Errorf("snapshot stats calls=%d collects=%d, want 0, 0: Algorithm 2 takes no snapshot", calls, collects)
	}
	if err := p.Unlock(); err != nil {
		t.Fatal(err)
	}
}

func TestSeedsReproducePermutations(t *testing.T) {
	// Two locks with the same seed assign the same permutations; correct
	// behavior regardless, but the handles' step counts when run solo and
	// deterministically must coincide.
	mk := func(seed uint64) int {
		l, err := NewRWLock(2, WithSeed(seed), WithDeterministicClaims())
		if err != nil {
			t.Fatal(err)
		}
		p, err := l.NewProcess()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Lock(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := p.Unlock(); err != nil {
				t.Fatal(err)
			}
		}()
		return p.LockSteps()
	}
	if mk(5) != mk(5) {
		t.Error("same seed produced different solo executions")
	}
}

func TestPermutationModeStrings(t *testing.T) {
	for _, m := range []PermutationMode{PermRandom, PermIdentity, PermRotation, PermutationMode(42)} {
		if m.String() == "" {
			t.Errorf("empty name for mode %d", m)
		}
	}
}

// TestLockCycleAllocatesNothing pins what the lazily made buffers must
// not cost: an RW handle makes its snapshot and double-scan buffers on
// its first Lock (AllocsPerRun's warm-up call here), an RMW handle never
// has any, and from then on a Lock/Unlock cycle of either stays off the
// heap.
func TestLockCycleAllocatesNothing(t *testing.T) {
	for _, alg := range []Algorithm{RW, RMW} {
		p := newProcs(t, alg, 8)[0]
		allocs := testing.AllocsPerRun(100, func() {
			if err := p.Lock(); err != nil {
				t.Fatal(err)
			}
			if err := p.Unlock(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %.1f allocations per Lock/Unlock cycle, want 0", alg, allocs)
		}
	}
}
