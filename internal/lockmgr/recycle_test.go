package lockmgr

// Recycling tests: a full table re-keys its coldest idle lock to the next
// name instead of building a new one. The re-keyed lock must be as good
// as new (all registers ⊥, its parked handle owning none), the steady
// evicting cycle must allocate nothing, and a contended victim must not
// carry its extra handles into the next name.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonmutex"
)

// cycleName acquires and releases name once, failing the test on error.
func cycleName(t testing.TB, m *Manager, name string) {
	t.Helper()
	l, err := m.AcquireLeaseCtx(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(l); err != nil {
		t.Fatal(err)
	}
}

// entryOf returns the resident entry for name, or nil.
func entryOf(m *Manager, name string) *entry {
	sh := m.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.entries[name]
}

// TestEvictionAllocatesNothing cycles 5 names round-robin over a 4-slot
// table, so every acquire misses and evicts the coldest name — the one
// asked for next. Once every slot holds a lock with its handle, an
// evicting acquire/release cycle performs no heap allocation.
func TestEvictionAllocatesNothing(t *testing.T) {
	m, err := New(Config{Shards: 1, MaxLocksPerShard: 4})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"n0", "n1", "n2", "n3", "n4"}
	for _, name := range names {
		cycleName(t, m, name)
	}
	before := m.Counters()
	calls := 0
	allocs := testing.AllocsPerRun(200, func() {
		cycleName(t, m, names[calls%len(names)])
		calls++
	})
	after := m.Counters()
	if allocs != 0 {
		t.Errorf("an evicting acquire/release cycle allocates %.2f objects, want 0", allocs)
	}
	if got := after.Evictions - before.Evictions; got != uint64(calls) {
		t.Errorf("evictions stepped %d over %d cycles, want one per cycle", got, calls)
	}
	if got := after.LockCreates - before.LockCreates; got != uint64(calls) {
		t.Errorf("lock creates stepped %d over %d cycles, want one per cycle", got, calls)
	}
	if after.Hits != before.Hits || after.ResidentLocks != 4 {
		t.Errorf("counters = %+v, want no hits and 4 resident", after)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledLockEntersSolo serves every name past the first four with a
// re-keyed lock and takes it with TryAcquireLease first. The bounded
// TryLock enters only on registers that all hold ⊥ and a handle that owns
// none of them, so each success is the quiescence argument the recycling
// rests on, checked on the real registers.
func TestRecycledLockEntersSolo(t *testing.T) {
	for _, alg := range []anonmutex.Algorithm{anonmutex.RW, anonmutex.RMW} {
		t.Run(alg.String(), func(t *testing.T) {
			m, err := New(Config{Shards: 1, MaxLocksPerShard: 4, Algorithm: alg, HandlesPerLock: 3})
			if err != nil {
				t.Fatal(err)
			}
			built := map[*entry]bool{}
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("k%d", i)
				l, ok, err := m.TryAcquireLease(name)
				if err != nil || !ok {
					t.Fatalf("first TryAcquireLease(%q) = ok %v, err %v; want a solo entry", name, ok, err)
				}
				e := entryOf(m, name)
				if i >= 4 && !built[e] {
					t.Fatalf("%q was served by a new lock; want the evicted one re-keyed", name)
				}
				built[e] = true
				if err := m.Release(l); err != nil {
					t.Fatal(err)
				}
			}
			if len(built) != 4 {
				t.Errorf("40 names used %d locks, want 4", len(built))
			}
			if c := m.Counters(); c.TryFailures != 0 || c.Evictions != 36 || c.LockCreates != 40 {
				t.Errorf("counters = %+v, want 0 try failures, 36 evictions, 40 creates", c)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestContendedVictimIsNotRecycled gives a name a second handle (a bounded
// acquire that competes with the holder and backs out) and then evicts it:
// the victim is torn down, and the next name gets a new lock with one
// handle.
func TestContendedVictimIsNotRecycled(t *testing.T) {
	m, err := New(Config{Shards: 1, MaxLocksPerShard: 1, HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.AcquireLeaseCtx(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := m.AcquireLeaseCtx(ctx, "a"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded acquire on a held name = %v, want DeadlineExceeded", err)
	}
	if err := m.Release(l); err != nil {
		t.Fatal(err)
	}
	victim := entryOf(m, "a")
	// The bounded acquire was a hit and set a's touch bit; clear it, as a
	// pass of the scan would, so that a is the victim of the next miss.
	m.shards[0].mu.Lock()
	victim.touched = false
	m.shards[0].mu.Unlock()
	if got := victim.pool.handles(); got != 2 {
		t.Fatalf("victim has %d handles, want 2", got)
	}
	cycleName(t, m, "b")
	if e := entryOf(m, "b"); e == victim {
		t.Error("a victim with 2 handles was re-keyed to the next name")
	} else if got := e.pool.handles(); got != 1 {
		t.Errorf("the next name's lock has %d handles, want 1", got)
	}
	if got := victim.pool.handles(); got != 0 {
		t.Errorf("the torn-down victim still has %d handles", got)
	}
	if c := m.Counters(); c.Evictions != 1 || c.LockCreates != 2 || c.ResidentLocks != 1 {
		t.Errorf("counters = %+v, want 1 eviction, 2 creates, 1 resident", c)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycleStress drives 8 goroutines over 3 × the cap of a 1-shard
// table with two handles per lock, so names are evicted, re-keyed and
// torn down while others wait, time out in the queue, back out of the
// registers and fail to try. Every critical section CASes its name's
// owner word 0 → g → 0: a second owner shows as a failed CAS.
func TestRecycleStress(t *testing.T) {
	const (
		capacity   = 4
		goroutines = 8
		ops        = 3000
	)
	for _, alg := range []anonmutex.Algorithm{anonmutex.RW, anonmutex.RMW} {
		t.Run(alg.String(), func(t *testing.T) {
			m, err := New(Config{Shards: 1, MaxLocksPerShard: capacity, Algorithm: alg, HandlesPerLock: 2})
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, 3*capacity)
			for i := range names {
				names[i] = fmt.Sprintf("s%02d", i)
			}
			owners := make([]atomic.Int32, len(names))
			var gate atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 1; g <= goroutines; g++ {
				wg.Add(1)
				go func(g int32) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < ops; i++ {
						k := rng.Intn(len(names))
						var l Lease
						var ok bool
						var err error
						switch r := rng.Intn(10); {
						case r < 4:
							l, err = m.AcquireLeaseCtx(context.Background(), names[k])
							ok = err == nil
						case r < 7:
							ctx, cancel := context.WithTimeout(context.Background(), time.Duration(50+rng.Intn(500))*time.Microsecond)
							l, err = m.AcquireLeaseCtx(ctx, names[k])
							cancel()
							ok = err == nil
							if errors.Is(err, context.DeadlineExceeded) {
								err = nil
							}
						default:
							l, ok, err = m.TryAcquireLease(names[k])
						}
						if err != nil {
							errs <- err
							return
						}
						if !ok {
							continue
						}
						if !owners[k].CompareAndSwap(0, g) {
							gate.Add(1)
						}
						if rng.Intn(4) == 0 {
							runtime.Gosched()
						}
						if !owners[k].CompareAndSwap(g, 0) {
							gate.Add(1)
						}
						if err := m.Release(l); err != nil {
							errs <- err
							return
						}
					}
				}(int32(g))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			c := m.Counters()
			t.Logf("%+v", c)
			if gate.Load() != 0 || m.Violations() != 0 {
				t.Fatalf("%d owner-word gate failures, %d holder violations", gate.Load(), m.Violations())
			}
			if c.Evictions == 0 {
				t.Error("no evictions: the table never filled")
			}
			if int(c.LockCreates-c.Evictions) != c.ResidentLocks {
				t.Errorf("creates %d - evictions %d != resident %d", c.LockCreates, c.Evictions, c.ResidentLocks)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
