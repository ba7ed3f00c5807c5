// Package lease layers a crash-recovery lifecycle over the lock
// manager's grants: every grant is stamped with a monotonic fencing
// token, kept alive by holder heartbeats, and forcibly revoked when its
// TTL expires — so a client that dies holding a lock (kill -9 mid-CS, a
// dropped network partition, a stuck process) orphans the name for at
// most one TTL plus the cost of one revocation, instead of forever.
//
// The pieces:
//
//   - Fencing tokens. Tokens are issued from one manager-wide counter,
//     so they are strictly increasing across every key — per-key
//     monotonicity survives LRU eviction and lease-pool slot recycling
//     for free, with no per-key persistent state. A holder that
//     resurfaces after expiry presents a stale token and is rejected
//     (ErrFenced) by every lifecycle operation.
//   - Heartbeats with TTL expiry. Each shard keeps a min-heap of lease
//     deadlines drained by one expiry goroutine — no per-lease timers,
//     no per-lease goroutines. A heartbeat pushes the lease's deadline
//     out by one TTL; a lease whose deadline passes is expired.
//   - Revocation as release-by-proxy. Expiry drives the lock manager's
//     Revoke on the orphaned lease: the revoker goroutine executes the
//     holder's register-safe critical-section exit on the orphan's own
//     process handle (identity and permutation attach to the handle,
//     not the goroutine — the same machinery the abortable withdraw
//     uses), then the handle returns to the lease pool for reuse.
//     Waiters that die are not this package's problem: a dead waiter's
//     context cancellation already withdraws it from the competition.
//   - State lives exactly as long as a lease. Release, revocation and
//     expiry take the key's record out of its shard's table and heap
//     and park it on the shard's free list for the next grant, so the
//     table holds the live leases and nothing else. A stale holder's
//     late ops find no live lease under their token and are rejected
//     (ErrFenced) and counted all the same.
//   - The tables are the journal's snapshot. With a journal, each shard
//     appends through a journal lane of its own, under the shard mutex,
//     in the critical section that changes the table — so grants on
//     names in different shards share no lock — and the journal keeps
//     no copy of the leases: once its log outgrows the compaction size,
//     the next transition to finish takes every shard mutex, which
//     stops every lane, and hands the journal the tables to snapshot.
//     New reattaches the leases the journal recovered before anything
//     else runs.
//
// Exactly one lifecycle operation wins a given token: Release, Revoke,
// and expiry all arbitrate under the shard mutex on the (name, token)
// of a lease in the shard's table, so a connection teardown racing TTL
// expiry resolves to one release of the underlying lock — the loser
// observes ErrFenced and touches nothing.
package lease

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anonmutex/internal/journal"
	"anonmutex/internal/lockmgr"
)

// ErrFenced reports a lifecycle operation carrying a token whose lease
// is no longer active: it expired, was revoked, or was already
// released. Test with errors.Is.
var ErrFenced = errors.New("fenced: stale lease token")

// Config parameterizes a Manager. TTL is required; the zero value of
// every other field means "default".
type Config struct {
	// TTL is how long a grant lives without a heartbeat before it is
	// forcibly revoked. Required (> 0).
	TTL time.Duration
	// Shards is the number of independent expiry shards, each with its
	// own deadline heap and expiry goroutine (default 8).
	Shards int
	// Journal, when non-nil, records every lease transition in the
	// write-ahead log: grants and heartbeat renewals are committed per
	// the journal's sync policy before they are acknowledged, and the
	// fencing counter draws from durably reserved token bands so no
	// token is ever reissued across a restart. New takes the leases the
	// journal recovered and reattaches them, and the manager compacts
	// the journal from its own tables. Nil keeps the manager purely
	// in-memory (the pre-durability behavior, byte for byte).
	Journal *journal.Log
}

// Grant is one leased hold on a named lock, as returned by the
// convenience acquire wrappers: the name plus the fencing token that
// every later lifecycle op must present.
type Grant struct {
	Name  string
	Token uint64
}

// Counters is the manager's lifecycle bookkeeping.
type Counters struct {
	// Granted counts tokens issued.
	Granted uint64
	// Expired counts leases forcibly revoked at TTL (the holder stopped
	// heartbeating); Revoked counts forcible revocations by explicit
	// Revoke calls and by Close.
	Expired, Revoked uint64
	// FencedRejects counts lifecycle ops rejected for a stale token.
	FencedRejects uint64
	// Recovered counts leases reattached from the journal at startup.
	Recovered uint64
	// Active is the number of currently live leases.
	Active int
}

// keyState is one live lease's bookkeeping: in its shard's table and
// deadline heap from the grant until the lease ends, then on the
// shard's free list until the next grant reuses it.
type keyState struct {
	name     string
	token    uint64        // the lease's fencing token
	l        lockmgr.Lease // the held lock
	deadline time.Time     // expiry time
	idx      int           // position in the shard's deadline heap
}

// shard is one partition of the key space: the live leases by name,
// the deadline min-heap its expiry goroutine drains, and the records
// of ended leases. A key is in keys exactly while its lease is live,
// so a lookup that finds the token is the one arbitration point.
type shard struct {
	mu   sync.Mutex
	keys map[string]*keyState
	heap []*keyState
	free []*keyState // ended leases' records, reused by the next grant
	// armed is when the expiry goroutine next wakes by itself; a grant
	// wakes it only for a deadline before that, and lowers armed.
	armed  time.Time
	wake   chan struct{}
	passes int // expiry-loop passes, for tests
	// lane is the shard's journal lane (nil without a journal): every
	// record appends to it under mu.
	lane    *journal.Lane
	granted atomic.Uint64 // tokens issued on this shard's keys
	// A multiple of 64 B puts shards in a size class whose objects start
	// on a cache line, so one shard's writes never land on a line that
	// holds its neighbour's mutex.
	_ [8]byte
}

// Manager runs the lease lifecycle over a lock manager. Safe for
// concurrent use. The caller keeps ownership of the lock manager;
// Close revokes every still-active lease so the lock manager can be
// closed cleanly afterwards.
type Manager struct {
	lm     *lockmgr.Manager
	ttl    time.Duration
	shards []*shard

	// jn, when non-nil, journals every transition. band is the durably
	// reserved token high-water mark: tokens at or below it may be
	// issued without touching the journal; the first draw above it
	// reserves the next band under bandMu (serialized so one fsync
	// renews the band for everyone).
	jn     *journal.Log
	band   atomic.Uint64
	bandMu sync.Mutex
	// compacting admits one compaction at a time; the others skip it.
	compacting atomic.Bool

	expired, revoked, fenced, recovered atomic.Uint64

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// tokens is the manager-wide issue counter: strictly increasing
	// across every key, which is what makes per-key token sequences
	// monotonic across expiry, release, eviction, and slot recycling.
	// Every grant writes it, so it has a cache line to itself: the
	// fields above are read by every operation.
	_      [cacheLine]byte
	tokens atomic.Uint64
	_      [cacheLine - 8]byte
}

// cacheLine separates the words every grant writes from those every
// operation reads.
const cacheLine = 64

// New starts a lease manager over lm.
func New(lm *lockmgr.Manager, cfg Config) (*Manager, error) {
	if cfg.TTL <= 0 {
		return nil, fmt.Errorf("lease: need TTL > 0, got %v", cfg.TTL)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("lease: need Shards >= 1, got %d", cfg.Shards)
	}
	m := &Manager{
		lm:     lm,
		ttl:    cfg.TTL,
		shards: make([]*shard, cfg.Shards),
		jn:     cfg.Journal,
		stop:   make(chan struct{}),
	}
	for i := range m.shards {
		sh := &shard{keys: make(map[string]*keyState), wake: make(chan struct{}, 1)}
		if m.jn != nil {
			sh.lane = m.jn.NewLane(&sh.mu)
		}
		m.shards[i] = sh
	}
	if m.jn != nil {
		m.recover(m.jn.TakeRecovered())
	}
	for i := range m.shards {
		m.wg.Add(1)
		go m.runShard(m.shards[i])
	}
	return m, nil
}

// recover reattaches the journal's recovered leases before the expiry
// goroutines start: each lease is re-acquired from the (necessarily
// fresh and uncontended) lock manager and reinstalled under its
// original token and absolute deadline — a restart does not refresh
// TTLs, so a holder that died with the server still expires on the
// schedule it last heartbeat for, and one whose deadline already
// passed is expired by the first expiry sweep. The token counter
// restarts at the recovered band high-water mark (never below any
// recovered token), which is the restart-monotonicity argument: every
// token this incarnation issues exceeds every token the previous one
// could have issued.
func (m *Manager) recover(st journal.State) {
	high := st.TokenHigh
	for _, ls := range st.Leases {
		if ls.Token > high {
			high = ls.Token
		}
	}
	m.tokens.Store(high)
	m.band.Store(high)
	for _, ls := range st.Leases {
		l, ok, err := m.lm.TryAcquireLease(ls.Name)
		if err != nil || !ok {
			// The lock manager is fresh at recovery time, so this only
			// happens if the caller raced its own acquires in first;
			// their grant wins, the recovered one is dropped (and leaves
			// the journal at its next compaction).
			continue
		}
		sh := m.shard(ls.Name)
		sh.mu.Lock()
		sh.add(ls.Name, ls.Token, l, time.Unix(0, ls.Deadline))
		sh.mu.Unlock()
		m.recovered.Add(1)
	}
}

// Recovered reports how many leases were reattached from the journal
// at startup.
func (m *Manager) Recovered() uint64 { return m.recovered.Load() }

// TTL returns the configured lease TTL.
func (m *Manager) TTL() time.Duration { return m.ttl }

// shard maps a key to its partition (FNV-1a, as the lock manager
// shards names).
func (m *Manager) shard(name string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return m.shards[h%uint64(len(m.shards))]
}

// issueToken draws the next fencing token. Without a journal this is
// one atomic add. With one, the draw must stay inside a durably
// reserved band: the first draw past the band's high-water mark
// reserves the next band (one journal sync covering the next BandSize
// tokens), serialized under bandMu so concurrent overflowing draws
// share that sync. EnsureTokenFloor can jump the counter arbitrarily
// far (epoch<<32); the next draw then reserves from the new position,
// which is how bands compose with cluster epoch floors.
func (m *Manager) issueToken() (uint64, error) {
	tok := m.tokens.Add(1)
	if m.jn == nil {
		return tok, nil
	}
	for tok > m.band.Load() {
		m.bandMu.Lock()
		if tok <= m.band.Load() {
			m.bandMu.Unlock()
			break
		}
		high, err := m.jn.ReserveTokens(tok)
		if err != nil {
			m.bandMu.Unlock()
			return 0, fmt.Errorf("lease: token band reservation: %w", err)
		}
		m.band.Store(high)
		m.bandMu.Unlock()
		m.compactIfDue()
	}
	return tok, nil
}

// Attach stamps an already-acquired lock-manager lease with a fresh
// fencing token and starts its TTL clock, returning the token. This is
// the zero-extra-roundtrip surface the lock service uses: the server
// acquires through the manager's fast path, then attaches. With a
// journal configured, the grant is recorded and committed per the sync
// policy before Attach returns — under `always`, a grant the caller
// acknowledges is guaranteed to be re-served after a crash. On error
// the underlying lock has been released: the caller holds nothing.
func (m *Manager) Attach(l lockmgr.Lease) (uint64, error) {
	name := l.Name()
	tok, err := m.issueToken()
	if err != nil {
		m.lm.Release(l)
		return 0, err
	}
	deadline := time.Now().Add(m.ttl)
	sh := m.shard(name)
	sh.mu.Lock()
	// Mutual exclusion is the invariant that makes this a plain store:
	// a new grant on this name can only exist after the previous lease
	// ended, which took its state out of the table.
	sh.add(name, tok, l, deadline)
	if deadline.Before(sh.armed) {
		// The expiry loop sleeps past this deadline. Waking it here, not
		// after the commit below, keeps armed true if the commit fails.
		sh.armed = deadline
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
	var lsn uint64
	if sh.lane != nil {
		// Appended under the shard mutex so the journal's record order
		// agrees with the state transition order for this key.
		lsn = sh.lane.Append(journal.Record{Op: journal.OpGrant, Name: name, Token: tok, Deadline: deadline.UnixNano()})
	}
	sh.mu.Unlock()
	if m.jn != nil {
		m.compactIfDue()
		if err := m.jn.Commit(lsn); err != nil {
			// The grant cannot be made durable, so it must not be
			// acknowledged: take the lease back through the usual
			// arbitration (expiry may already have raced it).
			if dl, derr := m.detach(name, tok); derr == nil {
				m.lm.Release(dl)
			}
			return 0, fmt.Errorf("lease: journal commit: %w", err)
		}
	}
	sh.granted.Add(1)
	return tok, nil
}

// AcquireCtx acquires the named lock (blocking, context-bounded) and
// leases it: the returned Grant carries the fencing token.
func (m *Manager) AcquireCtx(ctx context.Context, name string) (Grant, error) {
	l, err := m.lm.AcquireLeaseCtx(ctx, name)
	if err != nil {
		return Grant{}, err
	}
	tok, err := m.Attach(l)
	if err != nil {
		return Grant{}, err
	}
	return Grant{Name: name, Token: tok}, nil
}

// Heartbeat renews the lease behind token, pushing its expiry out by
// one TTL, and returns the new remaining TTL. A stale token — the
// lease expired, was revoked, or was already released — is rejected
// with ErrFenced.
func (m *Manager) Heartbeat(name string, token uint64) (time.Duration, error) {
	sh := m.shard(name)
	sh.mu.Lock()
	st := sh.keys[name]
	if st == nil || st.token != token {
		sh.mu.Unlock()
		m.fenced.Add(1)
		return 0, fmt.Errorf("lease: heartbeat on %q token %d: %w", name, token, ErrFenced)
	}
	deadline := time.Now().Add(m.ttl)
	st.deadline = deadline
	sh.heapFix(st.idx)
	var lsn uint64
	if sh.lane != nil {
		lsn = sh.lane.Append(journal.Record{Op: journal.OpExtend, Name: name, Token: token, Deadline: deadline.UnixNano()})
	}
	sh.mu.Unlock()
	if m.jn != nil {
		m.compactIfDue()
		// A renewal must be durable before it is acknowledged for the
		// same reason a grant must: a holder whose ack'd extension is
		// lost would be expired while it believes itself renewed. The
		// error is deliberately not ErrFenced — the lease is still live.
		if err := m.jn.Commit(lsn); err != nil {
			return 0, fmt.Errorf("lease: journal commit: %w", err)
		}
	}
	return m.ttl, nil
}

// Remaining reports the lease's time to expiry, or ok=false when token
// no longer names an active lease. It is an observability probe: a
// stale token here is not counted as a fenced reject.
func (m *Manager) Remaining(name string, token uint64) (time.Duration, bool) {
	sh := m.shard(name)
	sh.mu.Lock()
	st := sh.keys[name]
	if st == nil || st.token != token {
		sh.mu.Unlock()
		return 0, false
	}
	d := time.Until(st.deadline)
	sh.mu.Unlock()
	if d < 0 {
		d = 0
	}
	return d, true
}

// Release gives the lease behind token back voluntarily. A stale token
// is rejected with ErrFenced and releases nothing — this is the single
// arbitration point that lets connection teardown race TTL expiry
// without ever double-releasing a recycled slot.
func (m *Manager) Release(name string, token uint64) error {
	l, err := m.detach(name, token)
	if err != nil {
		return err
	}
	return m.lm.Release(l)
}

// Revoke forcibly ends the lease behind token, driving the lock
// manager's revocation path on the orphaned handle. Expiry uses the
// same detach arbitration internally; Revoke is the explicit
// (administrative or test) entry point.
func (m *Manager) Revoke(name string, token uint64) error {
	l, err := m.detachOp(name, token, journal.OpRevoke)
	if err != nil {
		return err
	}
	m.revoked.Add(1)
	return m.lm.Revoke(l)
}

// detach atomically claims the active lease behind (name, token) and
// ends its state. Exactly one caller wins a given token; every other
// gets ErrFenced. The winner's ending op is journaled in transition
// order but never waited for: losing an ending record to a crash only
// means the key is recovered as held and expires by TTL — a liveness
// delay, never a safety violation — so release paths pay no sync.
func (m *Manager) detach(name string, token uint64) (lockmgr.Lease, error) {
	return m.detachOp(name, token, journal.OpRelease)
}

func (m *Manager) detachOp(name string, token uint64, op journal.Op) (lockmgr.Lease, error) {
	sh := m.shard(name)
	sh.mu.Lock()
	st := sh.keys[name]
	if st == nil || st.token != token {
		sh.mu.Unlock()
		m.fenced.Add(1)
		return lockmgr.Lease{}, fmt.Errorf("lease: release of %q token %d: %w", name, token, ErrFenced)
	}
	if sh.lane != nil {
		sh.lane.Append(journal.Record{Op: op, Name: name, Token: token})
	}
	l := sh.end(st)
	sh.mu.Unlock()
	m.compactIfDue()
	return l, nil
}

// EnsureTokenFloor raises the token issue counter to at least floor,
// so every token granted from now on exceeds it. It never lowers the
// counter. The cluster layer calls it with the membership epoch's
// token floor on every view change: grants issued by a key's new
// owner under epoch E+1 then compare strictly greater than anything
// its previous owner issued under epoch E, which is what keeps fencing
// sound across failover (a fenced holder's token can never outrank a
// successor's).
func (m *Manager) EnsureTokenFloor(floor uint64) {
	for {
		cur := m.tokens.Load()
		if cur >= floor || m.tokens.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// RevokeIf forcibly revokes every active lease whose name satisfies
// pred, through the same detach arbitration every other revocation
// uses, and reports how many it revoked. The cluster layer calls it on
// membership change with "no longer owned here" as the predicate: the
// keys that moved to another node have their local grants fenced out
// before the new owner starts granting them.
func (m *Manager) RevokeIf(pred func(name string) bool) int {
	type target struct {
		name  string
		token uint64
	}
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		var targets []target
		for name, st := range sh.keys {
			if pred(name) {
				targets = append(targets, target{name: name, token: st.token})
			}
		}
		sh.mu.Unlock()
		// Revoke outside the shard mutex: a target that loses the detach
		// arbitration to a concurrent expiry, release, or teardown was
		// ended by that path instead — either way it is gone.
		for _, tg := range targets {
			if err := m.Revoke(tg.name, tg.token); err == nil {
				n++
			}
		}
	}
	return n
}

// runShard is one shard's expiry goroutine: it sleeps until the
// deadline it armed for (or a wake for an earlier one) and expires due
// leases. Revocations run outside the shard mutex: the key cannot
// be re-granted until the underlying lock is actually released, so
// nothing can race the state while the lock is still held.
//
// An empty shard arms one TTL ahead: every grant made after that pass
// has a later deadline, so grants on a shard whose leases end before
// they expire never wake the loop. The price is one idle pass per TTL.
func (m *Manager) runShard(sh *shard) {
	defer m.wg.Done()
	timer := time.NewTimer(m.ttl)
	defer timer.Stop()
	var due []lockmgr.Lease
	for {
		sh.mu.Lock()
		sh.passes++
		now := time.Now()
		due = due[:0]
		for len(sh.heap) > 0 && !sh.heap[0].deadline.After(now) {
			// TTL expiry: claim the lease exactly as detach would.
			st := sh.heap[0]
			if sh.lane != nil {
				sh.lane.Append(journal.Record{Op: journal.OpExpire, Name: st.name, Token: st.token})
			}
			due = append(due, sh.end(st))
		}
		wait := m.ttl
		if len(sh.heap) > 0 {
			wait = sh.heap[0].deadline.Sub(now)
		}
		sh.armed = now.Add(wait)
		sh.mu.Unlock()
		if len(due) > 0 {
			m.compactIfDue()
		}
		for _, l := range due {
			m.expired.Add(1)
			m.lm.Revoke(l)
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-m.stop:
			return
		case <-sh.wake:
		case <-timer.C:
		}
	}
}

// compactIfDue compacts the journal once its log has grown past the
// compaction size. Every per-key record is appended to its shard's lane
// under the shard mutex, in the critical section that changes the
// shard's table, so with every shard mutex held no lane appends, the
// tables are exactly the state the log's records describe, and they are
// the snapshot. The lock order is the appenders': shards (the lanes),
// in index order, then the journal's. A closed manager does not compact:
// Close ends leases without journaling them, and its tables no longer
// match the log.
func (m *Manager) compactIfDue() {
	if m.jn == nil || !m.jn.CompactDue() || !m.compacting.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range m.shards {
		sh.mu.Lock()
	}
	if m.jn.CompactDue() && !m.closed.Load() {
		// A failure is sticky in the journal: the next commit reports it.
		_ = m.jn.Compact(m.live)
	}
	for _, sh := range m.shards {
		sh.mu.Unlock()
	}
	m.compacting.Store(false)
}

// live yields every live lease. Caller holds every shard mutex.
func (m *Manager) live(yield func(journal.LeaseState) bool) {
	for _, sh := range m.shards {
		for name, st := range sh.keys {
			if !yield(journal.LeaseState{Name: name, Token: st.token, Deadline: st.deadline.UnixNano()}) {
				return
			}
		}
	}
}

// Counters snapshots the lifecycle bookkeeping.
func (m *Manager) Counters() Counters {
	c := Counters{
		Expired:       m.expired.Load(),
		Revoked:       m.revoked.Load(),
		FencedRejects: m.fenced.Load(),
		Recovered:     m.recovered.Load(),
	}
	for _, sh := range m.shards {
		c.Granted += sh.granted.Load()
		sh.mu.Lock()
		c.Active += len(sh.keys)
		sh.mu.Unlock()
	}
	return c
}

// Abandon stops the manager as a crash would: expiry goroutines halt,
// nothing is revoked, and nothing further is journaled. It exists for
// crash-simulation tests (pair with the journal's Abandon) — a real
// kill -9 gets exactly this, minus the goroutine cleanup. Idempotent,
// mutually exclusive with Close.
func (m *Manager) Abandon() {
	if m.closed.Swap(true) {
		return
	}
	close(m.stop)
	m.wg.Wait()
}

// Close stops the expiry goroutines and revokes every still-active
// lease (the crash orphans a draining server never heard a release
// for), so the underlying lock manager can be closed with no
// outstanding leases. The revocations are deliberately NOT journaled:
// a graceful restart must recover the orphans' holds (their owners may
// merely be paused), so as far as the journal is concerned a drain
// ends with the leases still active — revoking them durably here would
// make restart strictly less safe than staying up. Idempotent.
func (m *Manager) Close() {
	if m.closed.Swap(true) {
		return
	}
	close(m.stop)
	m.wg.Wait()
	for _, sh := range m.shards {
		sh.mu.Lock()
		var orphans []lockmgr.Lease
		for _, st := range sh.keys {
			orphans = append(orphans, sh.end(st))
		}
		sh.mu.Unlock()
		for _, l := range orphans {
			m.revoked.Add(1)
			m.lm.Revoke(l)
		}
	}
}

// add makes a lease live: a record from the free list (or a new one)
// goes into the table and the deadline heap. Caller holds mu.
func (sh *shard) add(name string, token uint64, l lockmgr.Lease, deadline time.Time) {
	var st *keyState
	if n := len(sh.free); n > 0 {
		st, sh.free = sh.free[n-1], sh.free[:n-1]
	} else {
		st = new(keyState)
	}
	*st = keyState{name: name, token: token, l: l, deadline: deadline}
	sh.keys[name] = st
	sh.heapPush(st)
}

// end takes a live lease out of the table and the deadline heap, parks
// its record on the free list, and returns the lock it held. Caller
// holds mu.
func (sh *shard) end(st *keyState) lockmgr.Lease {
	l := st.l
	sh.heapRemove(st.idx)
	delete(sh.keys, st.name)
	*st = keyState{}
	sh.free = append(sh.free, st)
	return l
}

// Min-heap of keyStates by deadline, with index maintenance so
// heartbeats can fix an entry in place and an ended lease can leave
// from anywhere.

func (sh *shard) heapPush(st *keyState) {
	st.idx = len(sh.heap)
	sh.heap = append(sh.heap, st)
	sh.heapUp(st.idx)
}

// heapRemove takes the entry at i out of the heap.
func (sh *shard) heapRemove(i int) {
	last := len(sh.heap) - 1
	if i != last {
		sh.heapSwap(i, last)
	}
	sh.heap[last] = nil
	sh.heap = sh.heap[:last]
	if i != last {
		sh.heapFix(i)
	}
}

// heapFix restores heap order for the entry at i after its deadline
// changed in either direction.
func (sh *shard) heapFix(i int) {
	sh.heapUp(i)
	sh.heapDown(i)
}

func (sh *shard) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !sh.heap[i].deadline.Before(sh.heap[p].deadline) {
			return
		}
		sh.heapSwap(i, p)
		i = p
	}
}

func (sh *shard) heapDown(i int) {
	n := len(sh.heap)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && sh.heap[r].deadline.Before(sh.heap[c].deadline) {
			c = r
		}
		if !sh.heap[c].deadline.Before(sh.heap[i].deadline) {
			return
		}
		sh.heapSwap(i, c)
		i = c
	}
}

func (sh *shard) heapSwap(i, j int) {
	sh.heap[i], sh.heap[j] = sh.heap[j], sh.heap[i]
	sh.heap[i].idx = i
	sh.heap[j].idx = j
}
