package anonmutex

// LockCtx / TryLockFor / TryLock tests on the hardware substrate: bounded
// acquisition under real concurrency. The -race runs of these tests are
// the amem half of the cancellation acceptance check (the vmem half is
// internal/engine's boundary-exhaustive test).

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTryLockForExpiresWhileHeld pins the deterministic abort: with the
// lock held, a bounded attempt must come back (false, nil) within its
// deadline's order of magnitude, withdraw cleanly, and succeed once the
// holder leaves.
func TestTryLockForExpiresWhileHeld(t *testing.T) {
	for _, alg := range []Algorithm{RW, RMW} {
		t.Run(alg.String(), func(t *testing.T) {
			hs := newProcs(t, alg, 2)
			if err := hs[0].Lock(); err != nil {
				t.Fatal(err)
			}
			ok, err := hs[1].TryLockFor(2 * time.Millisecond)
			if err != nil {
				t.Fatalf("TryLockFor: %v", err)
			}
			if ok {
				t.Fatal("TryLockFor acquired a held lock")
			}
			if hs[1].Aborts() != 1 {
				t.Fatalf("aborts = %d, want 1", hs[1].Aborts())
			}
			if err := hs[0].Unlock(); err != nil {
				t.Fatal(err)
			}
			ok, err = hs[1].TryLockFor(5 * time.Second)
			if err != nil || !ok {
				t.Fatalf("TryLockFor after release = (%v, %v), want (true, nil)", ok, err)
			}
			if err := hs[1].Unlock(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLockCtxCancelledBeforeStart must not touch the machine at all.
func TestLockCtxCancelledBeforeStart(t *testing.T) {
	hs := newProcs(t, RMW, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := hs[0].LockCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("LockCtx = %v, want context.Canceled", err)
	}
	// The handle must remain fully usable.
	if err := hs[0].Lock(); err != nil {
		t.Fatal(err)
	}
	if err := hs[0].Unlock(); err != nil {
		t.Fatal(err)
	}
}

// TestLockCtxRace mixes deadline-bounded and blocking acquirers under
// real goroutine concurrency. The shared counter is deliberately
// unsynchronized except by the lock: the race detector turns any mutual
// exclusion corruption after a withdraw into a test failure, and the
// holder cross-check (held must step 0→1→0) catches double entries even
// without -race.
func TestLockCtxRace(t *testing.T) {
	const (
		n      = 4
		cycles = 60
	)
	for _, alg := range []Algorithm{RW, RMW} {
		t.Run(alg.String(), func(t *testing.T) {
			hs := newProcs(t, alg, n)
			var (
				counter  int64 // lock-protected; not atomic on purpose
				held     atomic.Int32
				entries  atomic.Int64
				aborted  atomic.Int64
				failures atomic.Int64
				wg       sync.WaitGroup
			)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(me int) {
					defer wg.Done()
					h := hs[me]
					for c := 0; c < cycles; c++ {
						acquired := false
						if me%2 == 0 {
							// Deadline-bounded: a mix of expirable and
							// generous budgets.
							d := time.Duration(50*(c%5)) * time.Microsecond
							if c%5 == 4 {
								d = time.Second
							}
							ok, err := h.TryLockFor(d)
							if err != nil {
								failures.Add(1)
								return
							}
							if !ok {
								aborted.Add(1)
								continue
							}
							acquired = true
						} else {
							if err := h.Lock(); err != nil {
								failures.Add(1)
								return
							}
							acquired = true
						}
						if acquired {
							if held.Add(1) != 1 {
								failures.Add(1)
							}
							counter++
							entries.Add(1)
							held.Add(-1)
							if err := h.Unlock(); err != nil {
								failures.Add(1)
								return
							}
						}
					}
				}(i)
			}
			wg.Wait()
			if failures.Load() != 0 {
				t.Fatalf("%d lifecycle failures or double entries", failures.Load())
			}
			if counter != entries.Load() {
				t.Fatalf("counter %d != entries %d: critical section corrupted", counter, entries.Load())
			}
			t.Logf("%v: %d entries, %d deadline aborts", alg, entries.Load(), aborted.Load())
		})
	}
}

// TestTryLockOpBoundUnderContention pins TryLock's hard bound at the
// service configuration, n = 8 and m = 11, while seven other handles
// cycle the lock: before its withdraw an attempt runs at most 2m+2
// shared-memory ops, compare&swap sweeps included, and the withdraw is
// one m-op sweep.
func TestTryLockOpBoundUnderContention(t *testing.T) {
	const n = 8
	hs := newProcs(t, RMW, n)
	m := hs[0].lock.m
	if m != 11 {
		t.Fatalf("m = %d, want 11", m)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, h := range hs[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := h.Lock(); err != nil {
					t.Error(err)
					return
				}
				if err := h.Unlock(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	p := hs[0]
	failed := 0
	for i := 0; i < 2000; i++ {
		ops0, _, _ := p.driver.Stats()
		aborts0 := p.Aborts()
		ok, err := p.TryLock()
		if err != nil {
			t.Fatal(err)
		}
		ops1, _, _ := p.driver.Stats()
		attempt := int(ops1 - ops0)
		if !ok {
			failed++
			if p.Aborts() != aborts0+1 {
				t.Fatalf("try %d: failed without one withdraw", i)
			}
			attempt -= m // the withdraw sweep
		}
		if attempt > 2*m+2 || attempt < 1 {
			t.Fatalf("try %d: %d ops before the withdraw, want 1..%d", i, attempt, 2*m+2)
		}
		if ok {
			if err := p.Unlock(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("%d of 2000 attempts withdrew", failed)
}
