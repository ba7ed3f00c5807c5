package anonmutex_test

// TryLock must be hard-bounded: a handful of shared-memory operations,
// never a wait for the holder's critical section to end. The lockd
// acquire fast path and lockmgr.TryAcquire/AcquireFast are built on
// this guarantee — before it existed, a competitor winning the register
// race could make a "non-blocking" probe wait out an arbitrarily long
// critical section.

import (
	"testing"
	"time"

	"anonmutex"
)

// newProcs makes an n-process lock running alg and all n of its handles.
func newProcs(t *testing.T, alg anonmutex.Algorithm, n int, opts ...anonmutex.Option) []*anonmutex.Process {
	t.Helper()
	lock, err := anonmutex.NewLock(alg, n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*anonmutex.Process, n)
	for i := range procs {
		if procs[i], err = lock.NewProcess(); err != nil {
			t.Fatal(err)
		}
	}
	return procs
}

func checkTryLockBounded(t *testing.T, alg anonmutex.Algorithm, opts ...anonmutex.Option) {
	t.Helper()
	procs := newProcs(t, alg, 2, opts...)
	a, b := procs[0], procs[1]
	if err := a.Lock(); err != nil {
		t.Fatal(err)
	}
	// The holder parks inside the critical section indefinitely; the
	// probe must come back on its own op budget, not on the holder's
	// schedule.
	done := make(chan struct{})
	go func() {
		defer close(done)
		ok, err := b.TryLock()
		if err != nil {
			t.Error(err)
			return
		}
		if ok {
			t.Error("TryLock acquired a held lock")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("TryLock blocked on a held lock")
	}
	if err := a.Unlock(); err != nil {
		t.Fatal(err)
	}
	// Free lock: the bounded attempt must succeed.
	ok, err := b.TryLock()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("TryLock failed on a free lock")
	}
	if err := b.Unlock(); err != nil {
		t.Fatal(err)
	}
}

func TestTryLockBoundedRMW(t *testing.T) { checkTryLockBounded(t, anonmutex.RMW) }

func TestTryLockBoundedRMWNoFastPath(t *testing.T) {
	checkTryLockBounded(t, anonmutex.RMW, anonmutex.WithoutSoloFastPath())
}

func TestTryLockBoundedRW(t *testing.T) { checkTryLockBounded(t, anonmutex.RW) }

// TestTryLockLeavesNoResidue: after a failed TryLock the prober must be
// invisible (its withdraw erased its identity), so the holder's release
// and a fresh acquisition proceed normally.
func TestTryLockLeavesNoResidue(t *testing.T) {
	procs := newProcs(t, anonmutex.RMW, 2)
	a, b := procs[0], procs[1]
	for i := 0; i < 50; i++ {
		if err := a.Lock(); err != nil {
			t.Fatal(err)
		}
		if ok, err := b.TryLock(); err != nil || ok {
			t.Fatalf("iter %d: TryLock on held lock = %v, %v", i, ok, err)
		}
		if err := a.Unlock(); err != nil {
			t.Fatal(err)
		}
		// b must now be able to win normally.
		if err := b.Lock(); err != nil {
			t.Fatal(err)
		}
		if err := b.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	if b.Aborts() == 0 {
		t.Error("failed TryLocks were not counted as withdrawn attempts")
	}
}
