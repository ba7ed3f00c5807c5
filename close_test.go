package anonmutex

import (
	"sync"
	"sync/atomic"
	"testing"
)

// lifecycleLocks makes one n-process lock per algorithm, keyed by the
// algorithm's name.
func lifecycleLocks(t *testing.T, n int) map[string]*Lock {
	t.Helper()
	locks := make(map[string]*Lock)
	for _, alg := range []Algorithm{RW, RMW} {
		l, err := NewLock(alg, n)
		if err != nil {
			t.Fatal(err)
		}
		locks[alg.String()] = l
	}
	return locks
}

// TestCloseReLease proves the satellite claim directly: a released slot
// can be re-leased, and the recycled handle still excludes correctly.
func TestCloseReLease(t *testing.T) {
	for name, l := range lifecycleLocks(t, 2) {
		t.Run(name, func(t *testing.T) {
			a, err := l.NewProcess()
			if err != nil {
				t.Fatal(err)
			}
			b, err := l.NewProcess()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.NewProcess(); err == nil {
				t.Fatal("NewProcess beyond n succeeded with no released handles")
			}
			// Use both handles, then close one and re-lease the slot.
			for _, h := range []*Process{a, b} {
				if err := h.Lock(); err != nil {
					t.Fatal(err)
				}
				if err := h.Unlock(); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Close(); err != nil {
				t.Fatalf("Close of idle handle: %v", err)
			}
			c, err := l.NewProcess()
			if err != nil {
				t.Fatalf("NewProcess after Close: %v", err)
			}
			// The recycled handle must exclude against the surviving one.
			var inCS atomic.Int32
			var wg sync.WaitGroup
			var violations atomic.Int32
			for _, h := range []*Process{b, c} {
				wg.Add(1)
				go func(h *Process) {
					defer wg.Done()
					for s := 0; s < 50; s++ {
						if err := h.Lock(); err != nil {
							t.Error(err)
							return
						}
						if inCS.Add(1) != 1 {
							violations.Add(1)
						}
						inCS.Add(-1)
						if err := h.Unlock(); err != nil {
							t.Error(err)
							return
						}
					}
				}(h)
			}
			wg.Wait()
			if v := violations.Load(); v != 0 {
				t.Fatalf("%d mutual-exclusion violations with a recycled handle", v)
			}
		})
	}
}

// TestCloseLeavesNoResidue checks the invariant Close relies on: an idle
// process owns no registers, so after all handles close, the anonymous
// memory holds only ⊥.
func TestCloseLeavesNoResidue(t *testing.T) {
	for name, l := range lifecycleLocks(t, 3) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				h, err := l.NewProcess()
				if err != nil {
					t.Fatal(err)
				}
				if err := h.Lock(); err != nil {
					t.Fatal(err)
				}
				if err := h.Unlock(); err != nil {
					t.Fatal(err)
				}
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
			}
			for x, v := range l.mem.ObserveValues() {
				if !v.IsNone() {
					t.Errorf("register %d holds %s after every handle closed, want ⊥", x, v)
				}
			}
		})
	}
}

// TestCloseMisuse pins the lifecycle error paths.
func TestCloseMisuse(t *testing.T) {
	for name, l := range lifecycleLocks(t, 2) {
		t.Run(name, func(t *testing.T) {
			h, err := l.NewProcess()
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Lock(); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err == nil {
				t.Error("Close of a lock-holding handle succeeded")
			}
			if err := h.Unlock(); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatalf("Close of idle handle: %v", err)
			}
			if err := h.Close(); err == nil {
				t.Error("double Close succeeded")
			}
			if err := h.Lock(); err == nil {
				t.Error("Lock on a closed handle succeeded")
			}
			if err := h.Unlock(); err == nil {
				t.Error("Unlock on a closed handle succeeded")
			}
		})
	}
}

// TestCloseChurn leases, uses, and closes handles from many goroutines —
// more clients than slots — verifying the recycling path under the race
// detector and that exclusion holds across lease generations.
func TestCloseChurn(t *testing.T) {
	for name, l := range lifecycleLocks(t, 2) {
		t.Run(name, func(t *testing.T) {
			const clients = 6
			const cyclesPerClient = 30
			var inCS atomic.Int32
			var violations atomic.Int32
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for s := 0; s < cyclesPerClient; s++ {
						var h *Process
						for {
							var err error
							if h, err = l.NewProcess(); err == nil {
								break
							}
						}
						if err := h.Lock(); err != nil {
							t.Error(err)
							return
						}
						if inCS.Add(1) != 1 {
							violations.Add(1)
						}
						inCS.Add(-1)
						if err := h.Unlock(); err != nil {
							t.Error(err)
							return
						}
						if err := h.Close(); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if v := violations.Load(); v != 0 {
				t.Fatalf("%d mutual-exclusion violations under handle churn", v)
			}
		})
	}
}
