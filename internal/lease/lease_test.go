package lease

import (
	"errors"
	"fmt"
	"sync"
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
	if _, err := New(lm, Config{TTL: time.Second, Grace: -1}); err == nil {
		t.Fatal("negative grace accepted")
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
	_, m := newManagers(t, Config{TTL: 20 * time.Millisecond, Grace: 5 * time.Millisecond, Shards: 2})
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

// TestQuarantineThenForget: after a release, the key's state answers
// the stale token with ErrFenced through the grace window, and the
// token stays fenced after GC too (the state is simply gone).
func TestQuarantineThenForget(t *testing.T) {
	const ttl = 20 * time.Millisecond
	_, m := newManagers(t, Config{TTL: ttl, Grace: ttl})
	g, err := m.AcquireCtx(t.Context(), "quarantined")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release("quarantined", g.Token); err != nil {
		t.Fatal(err)
	}
	// In quarantine: specific fencing rejection.
	if err := m.Release("quarantined", g.Token); !errors.Is(err, ErrFenced) {
		t.Fatalf("release in quarantine: %v, want ErrFenced", err)
	}
	// After the grace window the state is garbage-collected; the stale
	// token is still fenced (now as an unknown key).
	time.Sleep(3 * ttl)
	if err := m.Release("quarantined", g.Token); !errors.Is(err, ErrFenced) {
		t.Fatalf("release after GC: %v, want ErrFenced", err)
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
