package anonmutex

// Hand-off tests: a process blocked in Lock parks until a store to the
// lock's registers wakes it, so it must return promptly once the holder
// releases, and no wake may ever be lost.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonmutex/internal/core"
	"anonmutex/internal/engine"
)

// TestHandOffIsPrompt times release-to-return: one process holds the
// lock while a second blocks in Lock for 30 ms (long past its spin, so
// it is parked), then the holder unlocks. Over 15 rounds the median time
// from the Unlock call to the waiter's return must be at most 1 ms — a
// wake, not a timer: when waiters slept instead, the default lock (RMW,
// n = 8, m = 11) handed over in ≈ 18 ms and RW in ≈ 1.1 ms.
func TestHandOffIsPrompt(t *testing.T) {
	const (
		rounds = 15
		hold   = 30 * time.Millisecond
		bound  = time.Millisecond
	)
	for _, alg := range []Algorithm{RW, RMW} {
		for _, n := range []int{2, 8} {
			t.Run(fmt.Sprintf("%v/n=%d", alg, n), func(t *testing.T) {
				hs := newProcs(t, alg, n)
				holder, waiter := hs[0], hs[1]
				lat := make([]time.Duration, rounds)
				for r := range lat {
					if err := holder.Lock(); err != nil {
						t.Fatal(err)
					}
					got := make(chan time.Time, 1)
					go func() {
						if err := waiter.Lock(); err != nil {
							t.Error(err)
						}
						got <- time.Now()
					}()
					time.Sleep(hold)
					released := time.Now()
					if err := holder.Unlock(); err != nil {
						t.Fatal(err)
					}
					lat[r] = (<-got).Sub(released)
					if err := waiter.Unlock(); err != nil {
						t.Fatal(err)
					}
				}
				slices.Sort(lat)
				t.Logf("release to return: p50 %v, min %v, max %v", lat[rounds/2], lat[0], lat[rounds-1])
				if lat[rounds/2] > bound {
					t.Errorf("median hand-off %v, want <= %v (all: %v)", lat[rounds/2], bound, lat)
				}
			})
		}
	}
}

// TestNoLostWake runs 10 000 strict hand-offs per algorithm, with 2 to 8
// processes on an n = 8 lock, and a park cap of one minute: a process
// that unlocks does not lock again until another has acquired, so when
// every other process is parked, only a wake lets the run go on. A lost
// wake stalls it, and a watchdog fails the test after 10 s without a
// hand-off instead of waiting out the cap. Every park must end in a wake.
func TestNoLostWake(t *testing.T) {
	old := newDriver
	newDriver = func(m core.Machine, x engine.Executor) *engine.Driver {
		return engine.NewDriverBackoff(m, x, engine.Backoff{SleepMax: time.Minute})
	}
	defer func() { newDriver = old }()

	const (
		n       = 8
		handoff = 10_000
		stall   = 10 * time.Second
	)
	for _, alg := range []Algorithm{RW, RMW} {
		t.Run(alg.String(), func(t *testing.T) {
			var parks, wakes uint64
			for k := 2; k <= n; k++ {
				hs := newProcs(t, alg, n)[:k]
				p, w := handOffs(t, hs, int64(handoff/(n-1)), stall)
				parks += p
				wakes += w
			}
			t.Logf("%d parks, %d ended by a wake", parks, wakes)
			if parks == 0 {
				t.Error("no process parked: the test never waited on a wake")
			}
			if wakes != parks {
				t.Errorf("%d of %d parks ended without a wake, at the one-minute cap", parks-wakes, parks)
			}
		})
	}
}

// handOffs runs target strict hand-offs among hs, one goroutine each, and
// returns the parks the handles' drivers took and how many a wake ended.
func handOffs(t *testing.T, hs []*Process, target int64, stall time.Duration) (parks, wakes uint64) {
	t.Helper()
	var acquired, inCS atomic.Int64
	var alive atomic.Int32
	alive.Store(int32(len(hs)))
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		last, since := acquired.Load(), time.Now()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if a := acquired.Load(); a != last {
				last, since = a, time.Now()
			} else if time.Since(since) > stall {
				buf := make([]byte, 1<<20)
				panic(fmt.Sprintf("no hand-off in %v after %d of %d with %d processes: a wake was lost\n%s",
					stall, a, target, len(hs), buf[:runtime.Stack(buf, true)]))
			}
		}
	}()
	var wg sync.WaitGroup
	for _, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer alive.Add(-1)
			for {
				if err := h.Lock(); err != nil {
					t.Error(err)
					return
				}
				if inCS.Add(1) != 1 {
					t.Error("two processes in the critical section")
				}
				c := acquired.Add(1)
				runtime.Gosched() // let the others reach their parks
				inCS.Add(-1)
				if err := h.Unlock(); err != nil {
					t.Error(err)
					return
				}
				if c >= target {
					return
				}
				for acquired.Load() == c && alive.Load() > 1 {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	for _, h := range hs {
		_, p, w := h.driver.Stats()
		parks += p
		wakes += w
	}
	return parks, wakes
}
