package lease

// Durability wiring tests: the differential recovery-equivalence test
// (a journal-recovered manager must be indistinguishable from the live
// manager it replaces), restart token monotonicity, and band/floor
// composition. These live in-package so they can introspect shard
// state for exact comparison.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"anonmutex/internal/journal"
	"anonmutex/internal/lockmgr"
	"anonmutex/internal/xrand"
)

func newJournaled(t *testing.T, dir string, cfg Config, jopts journal.Options) (*lockmgr.Manager, *Manager, *journal.Log) {
	t.Helper()
	jn, _, err := journal.Open(dir, jopts)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	lm, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = jn
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
			out[name] = LeaseState{Name: name, Token: st.token, Deadline: st.deadline}
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
		Config{TTL: 250 * time.Millisecond},
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
		Config{TTL: 250 * time.Millisecond},
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

// newOffJournaled is a manager journaled under the fsync-off policy,
// as the benchmark's inproc workload runs it.
func newOffJournaled(tb testing.TB) *Manager {
	tb.Helper()
	jn, _, err := journal.Open(tb.TempDir(), journal.Options{Sync: journal.SyncOff})
	if err != nil {
		tb.Fatal(err)
	}
	lm, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(lm, Config{TTL: time.Minute, Journal: jn})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		m.Close()
		jn.Close()
		lm.Close()
	})
	return m
}

// leaseCycle is one try-acquire and release of name.
func leaseCycle(tb testing.TB, m *Manager, name string) {
	g, ok, err := m.tryAcquire(name)
	if err != nil || !ok {
		tb.Fatalf("try %s: ok=%v err=%v", name, ok, err)
	}
	if err := m.Release(name, g.Token); err != nil {
		tb.Fatal(err)
	}
}

func keyNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("key-%05d", i)
	}
	return names
}

// BenchmarkLeaseCycleJournaled is BenchmarkLeaseCycle with the journal
// wired in under the fsync-off policy: the durability tax the hot path
// pays when persistence is on but syncing is deferred — two record
// appends (grant + release) per cycle, no I/O waits.
func BenchmarkLeaseCycleJournaled(b *testing.B) {
	m := newOffJournaled(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		leaseCycle(b, m, "bench-key")
	}
}

// BenchmarkLeaseCycleManyKeys is BenchmarkLeaseCycleJournaled over
// 20480 rotating keys, as the benchmark's inproc workload draws them:
// a single key cannot see how large the lease table grows.
func BenchmarkLeaseCycleManyKeys(b *testing.B) {
	m := newOffJournaled(b)
	names := keyNames(20480)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		leaseCycle(b, m, names[i%len(names)])
	}
}

// TestLeaseCycleAllocatesNothing pins the free list: once every key has
// been granted once, a journaled grant and release over 4096 rotating
// keys reuses an ended lease's record and allocates nothing.
func TestLeaseCycleAllocatesNothing(t *testing.T) {
	m := newOffJournaled(t)
	names := keyNames(4096)
	for _, name := range names {
		leaseCycle(t, m, name)
	}
	i := 0
	if allocs := testing.AllocsPerRun(len(names), func() {
		leaseCycle(t, m, names[i%len(names)])
		i++
	}); allocs != 0 {
		t.Errorf("%v allocations per lease cycle, want 0", allocs)
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

// TestRecoveredLeasesSurviveCompaction: a manager built on a journal
// that recovered leases reattaches them without being handed them, so
// the first compaction it runs — a snapshot of its own tables — keeps
// every one, and a second restart gets each back with its token and
// absolute deadline.
func TestRecoveredLeasesSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	_, mA, jnA := newJournaled(t, dir, Config{TTL: time.Minute}, journal.Options{Sync: journal.SyncAlways})
	for i := 0; i < 8; i++ {
		if _, ok, err := mA.tryAcquire(fmt.Sprintf("held-%d", i)); err != nil || !ok {
			t.Fatalf("acquire held-%d: %v, %v", i, ok, err)
		}
	}
	want := liveState(mA)
	mA.Abandon()
	if err := jnA.Close(); err != nil {
		t.Fatal(err)
	}

	_, mB, jnB := newJournaled(t, dir, Config{TTL: time.Minute}, journal.Options{CompactBytes: 512})
	if mB.Recovered() != uint64(len(want)) {
		t.Fatalf("Recovered() = %d, want %d", mB.Recovered(), len(want))
	}
	snap := filepath.Join(dir, "snapshot")
	for i := 0; ; i++ {
		if _, err := os.Stat(snap); err == nil {
			break
		}
		if i == 1000 {
			t.Fatalf("no compaction after %d lease cycles at CompactBytes 512", i)
		}
		leaseCycle(t, mB, "churn")
	}
	mB.Abandon()
	if err := jnB.Close(); err != nil {
		t.Fatal(err)
	}

	_, mC, jnC := newJournaled(t, dir, Config{TTL: time.Minute}, journal.Options{})
	defer func() { mC.Close(); jnC.Close() }()
	got := liveState(mC)
	if len(got) != len(want) {
		t.Fatalf("recovered %d leases across a compaction, want %d", len(got), len(want))
	}
	for name, w := range want {
		if r := got[name]; r.Token != w.Token || !r.Deadline.Equal(w.Deadline) {
			t.Errorf("lease %s recovered as token %d deadline %v, want %d %v", name, r.Token, r.Deadline, w.Token, w.Deadline)
		}
	}
}

// TestHeartbeatOnlyLoadCompacts: renewals alone grow the log, so they
// too must compact it — one lease renewed 10 000 times keeps the
// journal within its compaction size, and a restart recovers the last
// renewed deadline.
func TestHeartbeatOnlyLoadCompacts(t *testing.T) {
	const compactBytes = 4 << 10
	dir := t.TempDir()
	_, m, jn := newJournaled(t, dir, Config{TTL: time.Minute},
		journal.Options{Sync: journal.SyncOff, CompactBytes: compactBytes})
	g, ok, err := m.tryAcquire("renewed")
	if err != nil || !ok {
		t.Fatalf("acquire: %v, %v", ok, err)
	}
	for i := 0; i < 10000; i++ {
		if _, err := m.Heartbeat(g.Name, g.Token); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
		if i%100 == 99 {
			if err := jn.Sync(); err != nil {
				t.Fatal(err)
			}
			if sz := jn.SizeOnDisk(); sz > 2*compactBytes {
				t.Fatalf("journal is %d bytes on disk after %d renewals, compaction size %d", sz, i+1, compactBytes)
			}
		}
	}
	want := liveState(m)[g.Name]
	m.Abandon()
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	_, m2, jn2 := newJournaled(t, dir, Config{TTL: time.Minute}, journal.Options{})
	defer func() { m2.Close(); jn2.Close() }()
	if got := liveState(m2)[g.Name]; got.Token != g.Token || !got.Deadline.Equal(want.Deadline) {
		t.Fatalf("recovered token %d deadline %v, want %d %v", got.Token, got.Deadline, g.Token, want.Deadline)
	}
}

// TestCompactionUnderChurn races releases, revocations, heartbeats and
// TTL expiries against the compactions their own appends make due, at
// the always policy and a 2 KiB compaction size. After a crash the
// reopened journal holds exactly the manager's last table, and no token
// was ever issued twice — before the crash or after it.
func TestCompactionUnderChurn(t *testing.T) {
	dir := t.TempDir()
	_, mA, jnA := newJournaled(t, dir, Config{TTL: 20 * time.Millisecond, Shards: 4},
		journal.Options{Sync: journal.SyncAlways, CompactBytes: 2 << 10, BandSize: 64})
	keys := keyNames(16)
	var (
		mu       sync.Mutex
		issued   = map[uint64]bool{}
		maxToken uint64
		wg       sync.WaitGroup
	)
	const workers, grants = 4, 80
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for i := 0; i < grants; i++ {
				// A key held by an abandoned lease is served at its expiry.
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				g, err := mA.AcquireCtx(ctx, keys[rng.Intn(len(keys))])
				cancel()
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				mu.Lock()
				if issued[g.Token] {
					t.Errorf("token %d issued twice", g.Token)
				}
				issued[g.Token] = true
				maxToken = max(maxToken, g.Token)
				mu.Unlock()
				// Ending ops may lose to TTL expiry: ErrFenced is a fair
				// outcome, anything else is not.
				var end error
				switch rng.Intn(4) {
				case 0:
					end = mA.Release(g.Name, g.Token)
				case 1:
					end = mA.Revoke(g.Name, g.Token)
				case 2:
					for k := 0; k < 3 && end == nil; k++ {
						_, end = mA.Heartbeat(g.Name, g.Token)
					}
					if end == nil {
						end = mA.Release(g.Name, g.Token)
					}
				default:
					// Abandoned: TTL expiry ends it.
				}
				if end != nil && !errors.Is(end, ErrFenced) {
					t.Errorf("%s: %v", g.Name, end)
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Leases still live at the crash: the churn's last abandoned ones
	// may have expired already.
	for _, name := range []string{"final-a", "final-b"} {
		g, ok, err := mA.tryAcquire(name)
		if err != nil || !ok {
			t.Fatalf("acquire %s: %v, %v", name, ok, err)
		}
		maxToken = max(maxToken, g.Token)
	}
	// Crash: the expiry loops stop, the tables stay as they are.
	mA.Abandon()
	want := liveState(mA)
	if len(want) == 0 {
		t.Fatal("nothing held at the crash; the comparison is vacuous")
	}
	if c := mA.Counters(); c.Expired == 0 {
		t.Errorf("no lease expired; the churn never raced TTL expiry")
	}
	if err := jnA.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatalf("the churn never compacted: %v", err)
	}

	jnB, st, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Leases) != len(want) {
		t.Errorf("reopen recovered %d leases, the last table held %d", len(st.Leases), len(want))
	}
	for _, ls := range st.Leases {
		if w, ok := want[ls.Name]; !ok || w.Token != ls.Token || w.Deadline.UnixNano() != ls.Deadline {
			t.Errorf("recovered %s token %d deadline %d; last table: %+v (held %v)", ls.Name, ls.Token, ls.Deadline, w, ok)
		}
	}
	lm, err := lockmgr.New(lockmgr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mB, err := New(lm, Config{TTL: time.Minute, Journal: jnB})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { mB.Close(); jnB.Close(); lm.Close() }()
	g, ok, err := mB.tryAcquire("after-restart")
	if err != nil || !ok {
		t.Fatalf("post-restart acquire: %v, %v", ok, err)
	}
	if g.Token <= maxToken {
		t.Fatalf("post-restart token %d does not exceed pre-crash max %d", g.Token, maxToken)
	}
}
