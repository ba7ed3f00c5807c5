package lease

// Durability wiring tests: the differential recovery-equivalence test
// (a journal-recovered manager must be indistinguishable from the live
// manager it replaces), restart token monotonicity, and band/floor
// composition. These live in-package so they can introspect shard
// state for exact comparison.

import (
	"fmt"
	"testing"
	"time"

	"anonmutex/internal/journal"
	"anonmutex/internal/lockmgr"
	"anonmutex/internal/xrand"
)

func newJournaled(t *testing.T, dir string, cfg Config, jopts journal.Options) (*lockmgr.Manager, *Manager, *journal.Log) {
	t.Helper()
	jn, st, err := journal.Open(dir, jopts)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	lm, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = jn
	cfg.Recovered = &st
	m, err := New(lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lm, m, jn
}

// liveState snapshots a manager's active leases (name -> token,
// deadline) straight out of its shards.
func liveState(m *Manager) map[string]LeaseState {
	out := map[string]LeaseState{}
	for _, sh := range m.shards {
		sh.mu.Lock()
		for name, st := range sh.keys {
			if st.active {
				out[name] = LeaseState{Name: name, Token: st.token, Deadline: st.deadline}
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// LeaseState mirrors journal.LeaseState with a time.Time deadline for
// comparison.
type LeaseState struct {
	Name     string
	Token    uint64
	Deadline time.Time
}

// TestRecoveryEquivalence is the differential test: drive a randomized
// op sequence (grants, heartbeats, releases, revokes) against a
// journaled manager, crash it (Abandon — no revocations, no cleanup),
// recover a second manager from the journal, and require the
// recovered state to equal the live state exactly: same held keys,
// same tokens, same deadlines. Then require the recovered manager's
// next token to exceed everything the first ever issued. A stubbed-out
// recovery fails immediately: the recovered manager would hold
// nothing.
func TestRecoveryEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			// SyncAlways + tiny CompactBytes so the sequence crosses
			// several compactions; long TTL so expiry never interferes
			// with the deterministic expected state.
			_, mA, jnA := newJournaled(t, dir,
				Config{TTL: time.Minute},
				journal.Options{Sync: journal.SyncAlways, CompactBytes: 2048, BandSize: 64})

			rng := xrand.New(seed)
			keys := make([]string, 24)
			for i := range keys {
				keys[i] = fmt.Sprintf("dkey-%02d", i)
			}
			held := map[string]Grant{}
			var maxToken uint64
			for i := 0; i < 600; i++ {
				name := keys[rng.Intn(len(keys))]
				g, isHeld := held[name]
				switch {
				case !isHeld:
					ng, ok, err := mA.tryAcquire(name)
					if err != nil || !ok {
						t.Fatalf("op %d: tryAcquire(%s) = %v, %v", i, name, ok, err)
					}
					held[name] = ng
					if ng.Token <= maxToken {
						t.Fatalf("op %d: token %d not increasing past %d", i, ng.Token, maxToken)
					}
					maxToken = ng.Token
				case rng.Intn(3) == 0:
					if _, err := mA.Heartbeat(name, g.Token); err != nil {
						t.Fatalf("op %d: Heartbeat(%s): %v", i, name, err)
					}
				case rng.Intn(2) == 0:
					if err := mA.Release(name, g.Token); err != nil {
						t.Fatalf("op %d: Release(%s): %v", i, name, err)
					}
					delete(held, name)
				default:
					if err := mA.Revoke(name, g.Token); err != nil {
						t.Fatalf("op %d: Revoke(%s): %v", i, name, err)
					}
					delete(held, name)
				}
			}
			want := liveState(mA)
			if len(want) == 0 {
				t.Fatal("sequence ended with nothing held; test is vacuous")
			}

			// Crash: no revocations reach the journal; buffered ending
			// records are flushed by Close so the recovered state is the
			// exact final state, not a stale prefix.
			mA.Abandon()
			if err := jnA.Close(); err != nil {
				t.Fatal(err)
			}

			_, mB, jnB := newJournaled(t, dir, Config{TTL: time.Minute}, journal.Options{})
			defer func() { mB.Close(); jnB.Close() }()
			got := liveState(mB)
			if len(got) != len(want) {
				t.Fatalf("recovered %d leases, live had %d", len(got), len(want))
			}
			for name, w := range want {
				r, ok := got[name]
				if !ok {
					t.Fatalf("live lease %s (token %d) not recovered", name, w.Token)
				}
				if r.Token != w.Token {
					t.Fatalf("lease %s recovered token %d, live %d", name, r.Token, w.Token)
				}
				if !r.Deadline.Equal(w.Deadline) {
					t.Fatalf("lease %s recovered deadline %v, live %v", name, r.Deadline, w.Deadline)
				}
			}
			if mB.Recovered() != uint64(len(want)) {
				t.Fatalf("Recovered() = %d, want %d", mB.Recovered(), len(want))
			}

			// Restart monotonicity: the next token exceeds every token
			// the first incarnation issued (band argument).
			ng, ok, err := mB.tryAcquire("fresh-after-restart")
			if err != nil || !ok {
				t.Fatalf("post-restart acquire: %v, %v", ok, err)
			}
			if ng.Token <= maxToken {
				t.Fatalf("post-restart token %d does not exceed pre-crash max %d", ng.Token, maxToken)
			}
		})
	}
}

// TestRecoveryRemainingTime: recovery keeps absolute deadlines — a
// lease granted with a short TTL before the crash expires on its
// original schedule after recovery, not TTL-from-restart.
func TestRecoveryRemainingTime(t *testing.T) {
	dir := t.TempDir()
	_, mA, jnA := newJournaled(t, dir,
		Config{TTL: 250 * time.Millisecond, Grace: 50 * time.Millisecond},
		journal.Options{Sync: journal.SyncAlways})
	g, ok, err := mA.tryAcquire("short")
	if err != nil || !ok {
		t.Fatal(err)
	}
	mA.Abandon()
	if err := jnA.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover with most of the TTL already burned.
	time.Sleep(150 * time.Millisecond)
	lmB, mB, jnB := newJournaled(t, dir,
		Config{TTL: 250 * time.Millisecond, Grace: 50 * time.Millisecond},
		journal.Options{})
	defer func() { mB.Close(); jnB.Close() }()
	if mB.Recovered() != 1 {
		t.Fatalf("Recovered() = %d, want 1", mB.Recovered())
	}
	if _, ok, _ := lmB.TryAcquireLease("short"); ok {
		t.Fatal("recovered lease not actually holding the lock")
	}
	// The original deadline is ~100ms out; well before a full TTL from
	// restart, the lease must expire on its own (probed with Remaining,
	// which unlike Heartbeat does not renew).
	deadline := time.Now().Add(200 * time.Millisecond)
	for {
		if _, ok := mB.Remaining("short", g.Token); !ok {
			break // expired: the recovered lease died on schedule
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered lease still alive past its original deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c := mB.Counters()
	if c.Expired != 1 {
		t.Fatalf("Expired = %d, want 1 (recovered lease must expire via the normal path)", c.Expired)
	}
}

// TestRecoveryPastDeadline: a lease already past its deadline at
// recovery time is reattached and then promptly expired by the expiry
// loop — it does not linger, and it does not vanish without a
// revocation of the underlying lock.
func TestRecoveryPastDeadline(t *testing.T) {
	dir := t.TempDir()
	_, mA, jnA := newJournaled(t, dir, Config{TTL: 50 * time.Millisecond}, journal.Options{Sync: journal.SyncAlways})
	if _, ok, err := mA.tryAcquire("stale"); err != nil || !ok {
		t.Fatal(err)
	}
	mA.Abandon()
	if err := jnA.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // deadline passes while "down"

	lmB, mB, jnB := newJournaled(t, dir, Config{TTL: 50 * time.Millisecond}, journal.Options{})
	defer func() { mB.Close(); jnB.Close() }()
	if mB.Recovered() != 1 {
		t.Fatalf("Recovered() = %d, want 1", mB.Recovered())
	}
	deadline := time.Now().Add(time.Second)
	for {
		if l, ok, _ := lmB.TryAcquireLease("stale"); ok {
			lmB.Release(l)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("past-deadline recovered lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c := mB.Counters(); c.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", c.Expired)
	}
}

// TestBandFloorComposition: EnsureTokenFloor jumps past the reserved
// band (a cluster epoch bump) and the next issue re-reserves above the
// floor; after a restart the counter sits above both.
func TestBandFloorComposition(t *testing.T) {
	dir := t.TempDir()
	_, m, jn := newJournaled(t, dir, Config{TTL: time.Minute}, journal.Options{Sync: journal.SyncAlways, BandSize: 100})
	g1, _, err := m.tryAcquire("a")
	if err != nil {
		t.Fatal(err)
	}
	floor := uint64(3) << 32
	m.EnsureTokenFloor(floor)
	g2, _, err := m.tryAcquire("b")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Token <= floor {
		t.Fatalf("post-floor token %d not above floor %d", g2.Token, floor)
	}
	m.Abandon()
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	_, m2, jn2 := newJournaled(t, dir, Config{TTL: time.Minute}, journal.Options{BandSize: 100})
	defer func() { m2.Close(); jn2.Close() }()
	g3, _, err := m2.tryAcquire("c")
	if err != nil {
		t.Fatal(err)
	}
	if g3.Token <= g2.Token || g3.Token <= g1.Token {
		t.Fatalf("restart token %d not above pre-crash tokens %d, %d", g3.Token, g1.Token, g2.Token)
	}
}

// BenchmarkLeaseCycleJournaled is BenchmarkLeaseCycle with the journal
// wired in under the fsync-off policy: the durability tax the hot path
// pays when persistence is on but syncing is deferred — two record
// appends (grant + release) per cycle, no I/O waits.
func BenchmarkLeaseCycleJournaled(b *testing.B) {
	jn, st, err := journal.Open(b.TempDir(), journal.Options{Sync: journal.SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	lm, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(lm, Config{TTL: time.Minute, Journal: jn, Recovered: &st})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		m.Close()
		jn.Close()
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

// TestCloseDoesNotJournalRevocations: a graceful Close revokes orphans
// in memory but must leave them active in the journal, so a restart
// recovers them (their holders may merely be paused).
func TestCloseDoesNotJournalRevocations(t *testing.T) {
	dir := t.TempDir()
	_, m, jn := newJournaled(t, dir, Config{TTL: time.Minute}, journal.Options{Sync: journal.SyncAlways})
	g, _, err := m.tryAcquire("orphan")
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	_, m2, jn2 := newJournaled(t, dir, Config{TTL: time.Minute}, journal.Options{})
	defer func() { m2.Close(); jn2.Close() }()
	if m2.Recovered() != 1 {
		t.Fatalf("Recovered() = %d after graceful close, want 1", m2.Recovered())
	}
	if st := liveState(m2)[("orphan")]; st.Token != g.Token {
		t.Fatalf("recovered orphan token %d, want %d", st.Token, g.Token)
	}
}
