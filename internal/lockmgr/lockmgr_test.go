package lockmgr

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonmutex"
)

func TestAcquireRelease(t *testing.T) {
	for _, alg := range []anonmutex.Algorithm{anonmutex.RW, anonmutex.RMW} {
		t.Run(alg.String(), func(t *testing.T) {
			m, err := New(Config{Algorithm: alg, HandlesPerLock: 2})
			if err != nil {
				t.Fatal(err)
			}
			g, err := m.AcquireLeaseCtx(context.Background(), "orders/42")
			if err != nil {
				t.Fatal(err)
			}
			if g.Name() != "orders/42" {
				t.Errorf("Name() = %q", g.Name())
			}
			if err := m.Release(g); err != nil {
				t.Fatal(err)
			}
			c := m.Counters()
			if c.Acquires != 1 || c.Releases != 1 || c.LockCreates != 1 {
				t.Errorf("counters = %+v", c)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConfigErrors(t *testing.T) {
	cases := []Config{
		{Shards: -1},
		{Algorithm: anonmutex.Greedy},
		{Algorithm: anonmutex.Greedy + 1},
		{HandlesPerLock: 1},
		{Registers: -3},
		{MaxLocksPerShard: -1},
		{Algorithm: anonmutex.RW, Registers: 4, HandlesPerLock: 2}, // 4 ∉ M(2): surfaces on first acquire
	}
	for i, cfg := range cases[:len(cases)-1] {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) [case %d] succeeded", cfg, i)
		}
	}
	m, err := New(cases[len(cases)-1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquireLeaseCtx(context.Background(), "k"); err == nil {
		t.Error("acquire with illegal register count succeeded")
	}
}

// TestMutualExclusionAcrossClients hammers a few names from many more
// clients than any lock has handles, checking exclusion two ways: a
// per-name owner token on the client side and the manager's own holder
// cross-check.
func TestMutualExclusionAcrossClients(t *testing.T) {
	m, err := New(Config{Shards: 4, HandlesPerLock: 3})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c"}
	owners := make([]atomic.Int64, len(names))
	const clients = 12
	const cycles = 40
	var violations atomic.Int64
	var wg sync.WaitGroup
	for c := 1; c <= clients; c++ {
		wg.Add(1)
		go func(me int64) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				k := (int(me) + i) % len(names)
				g, err := m.AcquireLeaseCtx(context.Background(), names[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !owners[k].CompareAndSwap(0, me) {
					violations.Add(1)
				}
				if !owners[k].CompareAndSwap(me, 0) {
					violations.Add(1)
				}
				if err := m.Release(g); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(c))
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d client-observed mutual-exclusion violations", v)
	}
	if v := m.Violations(); v != 0 {
		t.Fatalf("%d manager-observed mutual-exclusion violations", v)
	}
	c := m.Counters()
	if want := uint64(clients * cycles); c.Acquires != want || c.Releases != want {
		t.Errorf("acquires/releases = %d/%d, want %d", c.Acquires, c.Releases, want)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseWaited pins the pool's queueing path deterministically: with
// every slot leased out, a blocking lease waits for a release.
func TestLeaseWaited(t *testing.T) {
	created := 0
	p := &leasePool{capacity: 1, newHandle: func() (procHandle, error) {
		created++
		return stubHandle{}, nil
	}}
	h, waited, err := p.lease(context.Background())
	if err != nil || h == nil || waited {
		t.Fatalf("first lease: h=%v waited=%v err=%v", h, waited, err)
	}
	if h, err := p.tryLease(); h != nil || err != nil {
		t.Fatalf("non-blocking lease of exhausted pool: h=%v err=%v", h, err)
	}
	if p.wake != nil {
		t.Error("the wake channel exists before anyone queued")
	}
	done := make(chan struct{})
	ready := make(chan struct{})
	go func() {
		defer close(done)
		close(ready) // about to queue on the exhausted pool
		h2, waited, err := p.lease(context.Background())
		if err != nil || h2 == nil || !waited {
			t.Errorf("queued lease: h=%v waited=%v err=%v", h2, waited, err)
			return
		}
		p.release(h2)
	}()
	<-ready
	time.Sleep(20 * time.Millisecond) // let the goroutine park on the pool
	p.release(h)
	<-done
	if created != 1 {
		t.Errorf("created %d handles, want 1 (the pool must recycle)", created)
	}
	if err := p.closeIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolOneKeyStress runs 16 clients against one lock's 8 handles while
// clients are preempted at arbitrary instructions. A pool operation cut
// in half that way must look like nothing worse than a handle in use:
// the lock-free ring this pool replaced read a pop preempted between its
// claim and its publication as "more releases than handles" and
// panicked, with no handle released twice.
//
// The pool subtest is the one that bites. The clients share one
// scheduler thread; a second one runs a goroutine that stops the world
// in a loop, and every stop preempts the running client wherever it is —
// thousands of times a second, where the scheduler alone preempts a
// hundred. With stub handles the clients' loop is all pool code, so the
// preemptions land inside it: the ring panicked within 60ms in 10 of 10
// runs. The manager subtest is the same crowd on one thread through
// the real stack, where the pool is a sliver of a microsecond-long
// cycle; it checks that exclusion and the counters hold.
func TestPoolOneKeyStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const clients = 16

	t.Run("pool", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		const handles = 8
		var created atomic.Int32
		p := &leasePool{capacity: handles, newHandle: func() (procHandle, error) {
			created.Add(1)
			return &countingHandle{}, nil
		}}
		const cycles = 12500 // 200k in all, as in the manager subtest
		// The stop-the-world goroutine runs for as long as the clients do,
		// however slow the machine: no wall-clock floor to miss.
		done := make(chan struct{})
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			var ms runtime.MemStats
			for {
				select {
				case <-done:
					return
				default:
					runtime.ReadMemStats(&ms) // stops the world
				}
			}
		}()
		var shared atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bad := int64(0)
				for n := 0; n < cycles; n++ {
					h, _, err := p.lease(context.Background())
					if err != nil {
						t.Error(err)
						break
					}
					// Plain accesses: the pool's own synchronization is
					// what orders two clients' turns with a handle.
					ch := h.(*countingHandle)
					if ch.users++; ch.users != 1 {
						bad++
					}
					ch.users--
					p.release(h)
				}
				shared.Add(bad)
			}()
		}
		wg.Wait()
		close(done)
		<-stopped
		if n := shared.Load(); n != 0 {
			t.Errorf("a handle was leased to two clients at once %d times", n)
		}
		if n := created.Load(); n > handles {
			t.Errorf("created %d handles, want <= %d", n, handles)
		}
		if err := p.closeIdle(); err != nil {
			t.Error(err)
		}
	})

	t.Run("manager", func(t *testing.T) {
		m, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		const cycles = 12500 // 200k in all
		var owner, violations atomic.Int64
		var wg sync.WaitGroup
		for c := 1; c <= clients; c++ {
			wg.Add(1)
			go func(me int64) {
				defer wg.Done()
				for i := 0; i < cycles; i++ {
					l, err := m.AcquireLeaseCtx(context.Background(), "hot")
					if err != nil {
						t.Error(err)
						return
					}
					if !owner.CompareAndSwap(0, me) || !owner.CompareAndSwap(me, 0) {
						violations.Add(1)
					}
					if err := m.Release(l); err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(c))
		}
		wg.Wait()
		if v := violations.Load() + int64(m.Violations()); v != 0 {
			t.Errorf("%d mutual-exclusion violations", v)
		}
		if c := m.Counters(); c.Acquires != clients*cycles || c.Releases != clients*cycles {
			t.Errorf("acquires/releases = %d/%d, want %d", c.Acquires, c.Releases, clients*cycles)
		}
		if err := m.Close(); err != nil {
			t.Error(err)
		}
	})
}

// countingHandle is a stub handle that counts the clients using it, so a
// test can see the pool hand one handle to two clients.
type countingHandle struct {
	stubHandle
	users int
}

type stubHandle struct{}

func (stubHandle) LockCtx(ctx context.Context) error { return ctx.Err() }
func (stubHandle) TryLock() (bool, error)            { return true, nil }
func (stubHandle) Unlock() error                     { return nil }
func (stubHandle) Close() error                      { return nil }

// TestHandleMultiplexing pins the lease-pool overflow path at the
// manager level: with one client holding a 2-handle lock and two more
// acquiring, the third acquirer must queue for a handle (Waits ≥ 1), and
// all three must complete once the holder releases.
func TestHandleMultiplexing(t *testing.T) {
	m, err := New(Config{HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AcquireLeaseCtx(context.Background(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := m.AcquireLeaseCtx(context.Background(), "hot")
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.Release(g); err != nil {
				t.Error(err)
			}
		}()
	}
	// Let both acquirers reach the pool: one leases the second handle and
	// spins in the algorithm, the other queues for a lease.
	time.Sleep(100 * time.Millisecond)
	if err := m.Release(g); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	c := m.Counters()
	if c.Waits == 0 {
		t.Error("third acquirer on a 2-handle lock never queued for a lease")
	}
	if c.Acquires != 3 || c.Releases != 3 {
		t.Errorf("acquires/releases = %d/%d, want 3/3", c.Acquires, c.Releases)
	}
	if v := m.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTryAcquire(t *testing.T) {
	m, err := New(Config{HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, ok, err := m.TryAcquireLease("k")
	if err != nil || !ok {
		t.Fatalf("first TryAcquireLease: ok=%v err=%v", ok, err)
	}
	if _, ok, err := m.TryAcquireLease("k"); err != nil || ok {
		t.Fatalf("TryAcquireLease of a held lock: ok=%v err=%v", ok, err)
	}
	if err := m.Release(g); err != nil {
		t.Fatal(err)
	}
	g2, ok, err := m.TryAcquireLease("k")
	if err != nil || !ok {
		t.Fatalf("TryAcquireLease after release: ok=%v err=%v", ok, err)
	}
	if err := m.Release(g2); err != nil {
		t.Fatal(err)
	}
	c := m.Counters()
	if c.TryAcquires != 3 || c.TryFailures != 1 {
		t.Errorf("try counters = %+v", c)
	}
}

func TestLRUEviction(t *testing.T) {
	m, err := New(Config{Shards: 1, MaxLocksPerShard: 2, HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		g, err := m.AcquireLeaseCtx(context.Background(), fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Release(g); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Counters()
	if c.ResidentLocks > 2 {
		t.Errorf("resident locks = %d, want <= 2", c.ResidentLocks)
	}
	if c.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", c.Evictions)
	}
	// An evicted name is simply cold: re-acquiring materializes it again.
	g, err := m.AcquireLeaseCtx(context.Background(), "key-0")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(g); err != nil {
		t.Fatal(err)
	}
	if got := m.Counters().LockCreates; got != 6 {
		t.Errorf("lock creates = %d, want 6 (5 cold names + 1 re-materialization)", got)
	}
}

// TestEvictionOrder pins the second-chance scan over the entries' own
// prev/next links: a touched entry at the cold end is promoted, the
// coldest untouched one goes, and the list stays the table's mirror —
// the same names, the same order in both directions — through
// promotions, evictions and Close.
func TestEvictionOrder(t *testing.T) {
	m, err := New(Config{Shards: 1, MaxLocksPerShard: 3, HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	sh := m.shards[0]
	order := func() string {
		t.Helper()
		sh.mu.Lock()
		defer sh.mu.Unlock()
		var fwd, back []string
		for e := sh.hot; e != nil; e = e.next {
			fwd = append(fwd, e.name)
		}
		for e := sh.cold; e != nil; e = e.prev {
			back = append([]string{e.name}, back...)
		}
		if len(fwd) != len(sh.entries) || strings.Join(fwd, " ") != strings.Join(back, " ") {
			t.Fatalf("recency list %v (hot to cold) / %v (walked back) does not mirror a table of %d", fwd, back, len(sh.entries))
		}
		return strings.Join(fwd, " ")
	}
	cycle := func(name string) {
		t.Helper()
		g, err := m.AcquireLeaseCtx(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Release(g); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"a", "b", "c"} {
		cycle(name)
	}
	if got := order(); got != "c b a" {
		t.Fatalf("after three creates the list reads %q, want %q", got, "c b a")
	}
	cycle("a") // a hit only sets the touch bit
	if got := order(); got != "c b a" {
		t.Fatalf("a hit reordered the list to %q", got)
	}
	cycle("d") // the scan promotes touched a, evicts b
	if got := order(); got != "d a c" {
		t.Fatalf("after the eviction the list reads %q, want %q", got, "d a c")
	}
	cycle("e") // nothing touched: c, the coldest, goes
	if got := order(); got != "e d a" {
		t.Fatalf("after the second eviction the list reads %q, want %q", got, "e d a")
	}
	if c := m.Counters(); c.Evictions != 2 || c.LockCreates != 5 || c.Hits != 1 {
		t.Errorf("counters = %+v, want 2 evictions, 5 creates, 1 hit", c)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := order(); got != "" {
		t.Errorf("after Close the list still reads %q", got)
	}
}

// TestEvictionSkipsPinnedEntries fills a 1-entry shard while the resident
// lock is held: the held entry must survive and the table overflow.
func TestEvictionSkipsPinnedEntries(t *testing.T) {
	m, err := New(Config{Shards: 1, MaxLocksPerShard: 1, HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AcquireLeaseCtx(context.Background(), "pinned")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m.AcquireLeaseCtx(context.Background(), "other")
	if err != nil {
		t.Fatal(err)
	}
	// Both grants must still be valid: release in either order.
	if err := m.Release(g); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(g2); err != nil {
		t.Fatal(err)
	}
	if v := m.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
}

func TestCloseRejectsOutstandingGrants(t *testing.T) {
	m, err := New(Config{HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AcquireLeaseCtx(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err == nil {
		t.Error("Close with an outstanding grant succeeded")
	}
	if err := m.Release(g); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsTable(t *testing.T) {
	m, err := New(Config{Shards: 2, HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x", "y", "z"} {
		g, err := m.AcquireLeaseCtx(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Release(g); err != nil {
			t.Fatal(err)
		}
	}
	tbl := m.StatsTable()
	out := tbl.String()
	if !strings.Contains(out, "total") {
		t.Errorf("stats table missing total row:\n%s", out)
	}
	if !strings.Contains(out, "violations observed by the holder cross-check: 0") {
		t.Errorf("stats table missing violation note:\n%s", out)
	}
	if len(tbl.Rows) < 2 {
		t.Errorf("expected at least one shard row plus total, got %d rows", len(tbl.Rows))
	}
}
