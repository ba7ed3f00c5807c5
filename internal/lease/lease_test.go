package lease

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonmutex/internal/lockmgr"
	"anonmutex/internal/xrand"
)

// tryAcquire is the lock service's try path: a bounded probe on the
// lock manager, then Attach.
func (m *Manager) tryAcquire(name string) (Grant, bool, error) {
	l, ok, err := m.lm.TryAcquireLease(name)
	if !ok || err != nil {
		return Grant{}, false, err
	}
	tok, err := m.Attach(l)
	if err != nil {
		return Grant{}, false, err
	}
	return Grant{Name: name, Token: tok}, true, nil
}

func newManagers(t *testing.T, cfg Config) (*lockmgr.Manager, *Manager) {
	t.Helper()
	lm, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		if err := lm.Close(); err != nil {
			t.Errorf("lockmgr close after lease close: %v", err)
		}
	})
	return lm, m
}

func TestConfigValidation(t *testing.T) {
	lm, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	if _, err := New(lm, Config{}); err == nil {
		t.Fatal("zero TTL accepted")
	}
	if _, err := New(lm, Config{TTL: time.Second, Shards: -1}); err == nil {
		t.Fatal("negative shards accepted")
	}
}

// TestTokenMonotonicityPerKey is the fencing property test: across a
// randomized interleaving of voluntary releases, explicit revocations,
// and TTL expiries — the three ways a lease ends, all of which recycle
// the underlying lease-pool slot — each key's observed token sequence
// must be strictly increasing. One global issue counter makes this
// hold across keys too, but per-key is the property fencing needs.
func TestTokenMonotonicityPerKey(t *testing.T) {
	_, m := newManagers(t, Config{TTL: 20 * time.Millisecond, Shards: 2})
	const keys = 5
	last := make(map[string]uint64, keys)
	r := xrand.New(7)
	for i := 0; i < 120; i++ {
		name := fmt.Sprintf("k%d", r.Intn(keys))
		g, err := m.AcquireCtx(t.Context(), name)
		if err != nil {
			t.Fatalf("acquire %s: %v", name, err)
		}
		if g.Token <= last[name] {
			t.Fatalf("key %s: token %d not greater than previous %d", name, g.Token, last[name])
		}
		last[name] = g.Token
		switch r.Intn(3) {
		case 0:
			if err := m.Release(name, g.Token); err != nil {
				t.Fatalf("release %s: %v", name, err)
			}
		case 1:
			if err := m.Revoke(name, g.Token); err != nil {
				t.Fatalf("revoke %s: %v", name, err)
			}
		default:
			// Let the TTL expire it: the next acquire on this key blocks
			// until the expiry goroutine revokes the orphan.
		}
	}
}

// TestExpiryRecoversOrphan pins the headline recovery bound: a holder
// that goes dark orphans its key for at most one TTL plus the revoke
// cost, after which a waiting acquirer gets the lock.
func TestExpiryRecoversOrphan(t *testing.T) {
	const ttl = 30 * time.Millisecond
	_, m := newManagers(t, Config{TTL: ttl})
	if _, err := m.AcquireCtx(t.Context(), "orphaned"); err != nil {
		t.Fatal(err)
	}
	// Never heartbeat, never release: the successor's blocking acquire
	// must complete within 2×TTL.
	start := time.Now()
	g, err := m.AcquireCtx(t.Context(), "orphaned")
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*ttl {
		t.Errorf("orphan recovery took %v, want <= %v", took, 2*ttl)
	}
	c := m.Counters()
	if c.Expired != 1 {
		t.Errorf("expired = %d, want 1", c.Expired)
	}
	if err := m.Release("orphaned", g.Token); err != nil {
		t.Fatal(err)
	}
}

// TestOrphanWaiterGrantedPromptly: at a 3 ms TTL, an orphaned lease's one
// blocked successor must be granted within TTL + 5 ms of the orphan's
// grant (the median of 5 orphans, each on its own key). The successor is
// parked in the lock, and the expiry's revoke wakes it with its unlock;
// when blocked acquirers slept between reads instead, this took 22–25 ms.
func TestOrphanWaiterGrantedPromptly(t *testing.T) {
	const (
		ttl    = 3 * time.Millisecond
		rounds = 5
	)
	_, m := newManagers(t, Config{TTL: ttl})
	took := make([]time.Duration, rounds)
	for r := range took {
		name := fmt.Sprintf("orphan-%d", r)
		if _, err := m.AcquireCtx(t.Context(), name); err != nil {
			t.Fatal(err)
		}
		orphaned := time.Now()
		g, err := m.AcquireCtx(t.Context(), name)
		if err != nil {
			t.Fatal(err)
		}
		took[r] = time.Since(orphaned)
		if err := m.Release(name, g.Token); err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(took)
	t.Logf("orphan to successor's grant: %v", took)
	if took[rounds/2] > ttl+5*time.Millisecond {
		t.Errorf("median orphan recovery %v, want <= %v", took[rounds/2], ttl+5*time.Millisecond)
	}
	if c := m.Counters(); c.Expired != rounds {
		t.Errorf("expired = %d, want %d", c.Expired, rounds)
	}
}

// TestHeartbeatKeepsLeaseAlive: a heartbeating holder survives many
// TTLs; once it stops, the lease expires and its token is fenced.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	const ttl = 40 * time.Millisecond
	_, m := newManagers(t, Config{TTL: ttl})
	g, err := m.AcquireCtx(t.Context(), "beating")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(4 * ttl)
	for time.Now().Before(deadline) {
		if _, err := m.Heartbeat("beating", g.Token); err != nil {
			t.Fatalf("heartbeat while alive: %v", err)
		}
		time.Sleep(ttl / 4)
	}
	if rem, ok := m.Remaining("beating", g.Token); !ok || rem <= 0 {
		t.Fatalf("lease not live after heartbeating: rem=%v ok=%v", rem, ok)
	}
	// Stop heartbeating; wait out the TTL (plus slack for the expiry
	// goroutine), then every lifecycle op on the stale token must fence.
	time.Sleep(2 * ttl)
	if _, err := m.Heartbeat("beating", g.Token); !errors.Is(err, ErrFenced) {
		t.Fatalf("heartbeat after expiry: %v, want ErrFenced", err)
	}
	if err := m.Release("beating", g.Token); !errors.Is(err, ErrFenced) {
		t.Fatalf("release after expiry: %v, want ErrFenced", err)
	}
	c := m.Counters()
	if c.Expired != 1 {
		t.Errorf("expired = %d, want 1", c.Expired)
	}
	if c.FencedRejects < 2 {
		t.Errorf("fenced rejects = %d, want >= 2", c.FencedRejects)
	}
}

// TestReleaseRaceExpiry is the single-arbitration test: with TTLs so
// short that expiry constantly races voluntary release, exactly one
// side may win each token — the run must end with zero active leases,
// a conserved grant count, and a still-working key. Run under -race.
func TestReleaseRaceExpiry(t *testing.T) {
	const ttl = time.Millisecond
	lm, m := newManagers(t, Config{TTL: ttl, Shards: 1})
	const iters = 200
	var wg sync.WaitGroup
	var releaseWins, fencedLosses int
	for i := 0; i < iters; i++ {
		g, err := m.AcquireCtx(t.Context(), "contested")
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		// Sleep right up to the deadline so release and expiry collide.
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(ttl)
			if err := m.Release("contested", g.Token); err == nil {
				releaseWins++
			} else if errors.Is(err, ErrFenced) {
				fencedLosses++
			} else {
				t.Errorf("release: %v", err)
			}
		}()
		wg.Wait()
	}
	if releaseWins+fencedLosses != iters {
		t.Fatalf("wins %d + losses %d != %d iterations", releaseWins, fencedLosses, iters)
	}
	c := m.Counters()
	if c.Active != 0 {
		t.Errorf("active = %d after all races resolved, want 0", c.Active)
	}
	if got := c.Expired + uint64(releaseWins); got != iters {
		t.Errorf("expiries (%d) + release wins (%d) = %d, want %d", c.Expired, releaseWins, c.Expired+uint64(releaseWins), iters)
	}
	if v := lm.Violations(); v != 0 {
		t.Errorf("lock manager violations = %d, want 0", v)
	}
}

// holds reports whether name's shard has anything for it in its table
// or its deadline heap.
func (m *Manager) holds(name string) bool {
	sh := m.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.keys[name] != nil {
		return true
	}
	for _, st := range sh.heap {
		if st.name == name {
			return true
		}
	}
	return false
}

// waitFor polls cond until it holds or a second has passed.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEndedLeaseIsForgotten: each way a lease ends — release, revoke,
// TTL expiry — takes the key out of its shard's table and deadline heap
// at once, and the stale token is still fenced and counted.
func TestEndedLeaseIsForgotten(t *testing.T) {
	const ttl = 20 * time.Millisecond
	_, m := newManagers(t, Config{TTL: ttl})
	for _, tc := range []struct {
		name string
		end  func(g Grant) error
	}{
		{"released", func(g Grant) error { return m.Release(g.Name, g.Token) }},
		{"revoked", func(g Grant) error { return m.Revoke(g.Name, g.Token) }},
		{"expired", func(g Grant) error {
			waitFor(t, "expiry", func() bool { return m.Counters().Expired == 1 })
			return nil
		}},
	} {
		g, err := m.AcquireCtx(t.Context(), tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if !m.holds(tc.name) {
			t.Fatalf("%s: live lease not in its shard", tc.name)
		}
		if err := tc.end(g); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if m.holds(tc.name) {
			t.Errorf("%s: the shard still holds the ended lease", tc.name)
		}
		before := m.Counters().FencedRejects
		if err := m.Release(g.Name, g.Token); !errors.Is(err, ErrFenced) {
			t.Errorf("%s: release of the stale token: %v, want ErrFenced", tc.name, err)
		}
		if _, err := m.Heartbeat(g.Name, g.Token); !errors.Is(err, ErrFenced) {
			t.Errorf("%s: heartbeat of the stale token: %v, want ErrFenced", tc.name, err)
		}
		if got := m.Counters().FencedRejects - before; got != 2 {
			t.Errorf("%s: %d fenced rejects counted, want 2", tc.name, got)
		}
	}
}

// TestLeaseRecycleStress ends leases every way at once while their
// records are recycled: 8 goroutines on 4 keys of one shard, a TTL of a
// few ms, and each grant released, revoked, heartbeat then released, or
// left to expire, some after holding past the TTL. Each holder puts its
// token in a per-key owner word for its window. A window must be
// exclusive only if the lease is proven live at its end (its ending op
// won, or Remaining still finds it): an expired holder overlapping its
// successor is what fencing is for. Across proven windows, each key's
// tokens must rise. At quiescence the tables and heaps are empty, every
// grant ended exactly once, and the lock manager saw no violation.
func TestLeaseRecycleStress(t *testing.T) {
	const (
		goroutines = 8
		ops        = 150
		ttl        = 3 * time.Millisecond
	)
	lm, m := newManagers(t, Config{TTL: ttl, Shards: 1})
	names := []string{"r0", "r1", "r2", "r3"}
	owners := make([]atomic.Uint64, len(names))
	high := make([]atomic.Uint64, len(names))
	var overlaps, reorders, released atomic.Int64
	var wg sync.WaitGroup
	for g := 1; g <= goroutines; g++ {
		wg.Add(1)
		go func(r *xrand.Rand) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := r.Intn(len(names))
				name := names[k]
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				gr, err := m.AcquireCtx(ctx, name)
				cancel()
				if err != nil {
					t.Errorf("acquire %s: %v", name, err)
					return
				}
				tok := gr.Token
				// A holder that finds a later token in the word is stale
				// and leaves it be.
				entered := false
				for cur := owners[k].Load(); cur < tok && !entered; cur = owners[k].Load() {
					entered = owners[k].CompareAndSwap(cur, tok)
				}
				prev := high[k].Swap(tok)
				how := r.Intn(4)
				if how == 2 {
					if _, err := m.Heartbeat(name, tok); err != nil && !errors.Is(err, ErrFenced) {
						t.Errorf("heartbeat %s: %v", name, err)
					}
				}
				switch r.Intn(16) {
				case 0:
					time.Sleep(ttl) // outlive the lease: its end races expiry
				case 1, 2, 3:
					runtime.Gosched()
				}
				overlapped := !entered || !owners[k].CompareAndSwap(tok, 0)
				var live bool
				switch how {
				case 0, 2:
					err = m.Release(name, tok)
					if live = err == nil; live {
						released.Add(1)
					}
				case 1:
					err = m.Revoke(name, tok)
					live = err == nil
				default:
					_, live = m.Remaining(name, tok)
				}
				if err != nil && !errors.Is(err, ErrFenced) {
					t.Errorf("ending %s: %v", name, err)
				}
				if live && overlapped {
					overlaps.Add(1)
				}
				if live && prev >= tok {
					reorders.Add(1)
				}
			}
		}(xrand.New(uint64(g)))
	}
	wg.Wait()
	// The expiry loop counts an expiry just after the lease leaves the
	// table, so the counts settle a moment after the table empties.
	var c Counters
	var ended uint64
	settled := func() bool {
		c = m.Counters()
		ended = uint64(released.Load()) + c.Revoked + c.Expired
		return c.Active == 0 && ended == c.Granted
	}
	for deadline := time.Now().Add(time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if c.Active != 0 || ended != c.Granted {
		t.Fatalf("%d leases active; %d grants but %d ends (%d released, %d revoked, %d expired)",
			c.Active, c.Granted, ended, released.Load(), c.Revoked, c.Expired)
	}
	t.Logf("%+v", c)
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d owner-word gate failures: two live leases on one key", n)
	}
	if n := reorders.Load(); n != 0 {
		t.Errorf("%d tokens not above their key's previous one", n)
	}
	sh := m.shards[0]
	sh.mu.Lock()
	keys, heap := len(sh.keys), len(sh.heap)
	sh.mu.Unlock()
	if keys != 0 || heap != 0 {
		t.Errorf("quiescent shard holds %d keys and %d heap entries, want 0 and 0", keys, heap)
	}
	if c.Expired == 0 || c.Revoked == 0 {
		t.Errorf("not every way to end a lease ran: %+v", c)
	}
	if v := lm.Violations(); v != 0 {
		t.Errorf("lock manager violations = %d, want 0", v)
	}
}

// TestGrantsDoNotWakeExpiry: the expiry loop sleeps until the time it
// armed for, and a grant wakes it only for a deadline before that. With
// a fixed TTL no grant's deadline is, so grants and releases cost the
// loop nothing. Waking whenever the new lease is the heap's earliest
// would wake it on nearly every grant: a table of only live leases is
// nearly always empty.
func TestGrantsDoNotWakeExpiry(t *testing.T) {
	_, m := newManagers(t, Config{TTL: time.Minute, Shards: 4})
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	for i := 0; i < 10000; i++ {
		name := names[i%len(names)]
		g, ok, err := m.tryAcquire(name)
		if err != nil || !ok {
			t.Fatalf("try %s: ok=%v err=%v", name, ok, err)
		}
		if err := m.Release(name, g.Token); err != nil {
			t.Fatal(err)
		}
	}
	for i, sh := range m.shards {
		sh.mu.Lock()
		passes := sh.passes
		sh.mu.Unlock()
		if passes > 2 {
			t.Errorf("shard %d: %d expiry passes over 10000 grants, want <= 2", i, passes)
		}
	}
}

// TestExpiryAfterStaleArm: a grant whose deadline is after the expiry
// loop's armed time sends no wake, so the loop wakes at its stale arm
// and must re-arm for the lease rather than sleep past it.
func TestExpiryAfterStaleArm(t *testing.T) {
	const ttl = 30 * time.Millisecond
	_, m := newManagers(t, Config{TTL: ttl, Shards: 1})
	sh := m.shards[0]
	waitFor(t, "the first expiry pass", func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.passes > 0
	})
	a, ok, err := m.tryAcquire("a")
	if err != nil || !ok {
		t.Fatalf("try a: ok=%v err=%v", ok, err)
	}
	if err := m.Release("a", a.Token); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	b, ok, err := m.tryAcquire("b")
	if err != nil || !ok {
		t.Fatalf("try b: ok=%v err=%v", ok, err)
	}
	sh.mu.Lock()
	stale := sh.armed.Before(sh.keys["b"].deadline)
	sh.mu.Unlock()
	if !stale {
		t.Fatal("grant b lowered the arm: the loop was not armed before b's deadline")
	}
	waitFor(t, "b to expire", func() bool { return m.Counters().Expired == 1 })
	if took := time.Since(start); took > 2*ttl {
		t.Errorf("b expired after %v, want <= %v", took, 2*ttl)
	}
	if _, ok := m.Remaining("b", b.Token); ok {
		t.Error("b still live after its expiry was counted")
	}
}

// TestRevokeFreesTheLock: an explicit revocation releases the lock on
// the orphan's behalf — the next try succeeds immediately.
func TestRevokeFreesTheLock(t *testing.T) {
	lm, m := newManagers(t, Config{TTL: time.Minute})
	g, err := m.AcquireCtx(t.Context(), "seized")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke("seized", g.Token); err != nil {
		t.Fatal(err)
	}
	g2, ok, err := m.tryAcquire("seized")
	if err != nil || !ok {
		t.Fatalf("try after revoke: ok=%v err=%v", ok, err)
	}
	if g2.Token <= g.Token {
		t.Errorf("successor token %d not greater than revoked %d", g2.Token, g.Token)
	}
	if err := m.Release("seized", g2.Token); err != nil {
		t.Fatal(err)
	}
	c := m.Counters()
	if c.Revoked != 1 {
		t.Errorf("revoked = %d, want 1", c.Revoked)
	}
	if lc := lm.Counters(); lc.Revokes != 1 {
		t.Errorf("lock manager revokes = %d, want 1", lc.Revokes)
	}
}

// TestCloseRevokesOrphans: Close reclaims still-active leases so the
// underlying lock manager closes cleanly (asserted by the shared
// cleanup, which fails the test if lm.Close errors).
func TestCloseRevokesOrphans(t *testing.T) {
	_, m := newManagers(t, Config{TTL: time.Minute})
	for i := 0; i < 4; i++ {
		if _, err := m.AcquireCtx(t.Context(), fmt.Sprintf("orphan-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	if c := m.Counters(); c.Revoked != 4 || c.Active != 0 {
		t.Errorf("after close: revoked=%d active=%d, want 4, 0", c.Revoked, c.Active)
	}
}

// BenchmarkLeaseCycle is the lease-path analogue of the lock manager's
// acquire/release benchmarks: one uncontended acquire+attach+release
// cycle through the token arbitration.
func BenchmarkLeaseCycle(b *testing.B) {
	lm, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(lm, Config{TTL: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		m.Close()
		lm.Close()
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, ok, err := m.tryAcquire("bench-key")
		if err != nil || !ok {
			b.Fatalf("try: ok=%v err=%v", ok, err)
		}
		if err := m.Release("bench-key", g.Token); err != nil {
			b.Fatal(err)
		}
	}
}
