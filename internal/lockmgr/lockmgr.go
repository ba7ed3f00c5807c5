// Package lockmgr implements a sharded named-lock manager over the root
// package's anonymous-register mutexes: the bridge between the paper's
// primitive — one deadlock-free mutex over m anonymous registers for a
// fixed set of n processes — and a service that hands out locks by name
// to an unbounded client population.
//
// Three mechanisms make the bridge:
//
//   - Sharding. Lock names hash (FNV-1a) to one of K independent shards,
//     so unrelated names never contend on manager bookkeeping.
//   - Lazy, bounded materialization. Each shard keeps an LRU-bounded
//     table of named locks; a name has an anonymous-register arena only
//     while it is hot. Once the table fills, the coldest idle lock is
//     re-keyed to the next name — its registers are all ⊥ and its parked
//     handle owns none, so it is as good as new — and only a lock that
//     materialized more than one handle is torn down (its handles
//     closed). A full table's eviction therefore allocates nothing.
//     Recency is tracked CLOCK-style: a hit only sets a touch bit, and
//     promotion happens in batches at eviction time, so the hit path's
//     critical section is a map lookup and two stores.
//   - Lease pooling. Every named lock is a fixed-n anonmutex lock; a
//     lease pool multiplexes arbitrarily many clients onto those n
//     process handles through a mutex-guarded stack of parked handles,
//     built on the root package's Close/re-lease lifecycle. Clients that
//     find all n handles leased queue for the next release.
//
// The hot path is built to stay off the heap and off long critical
// sections: per-shard counters are atomics (reading Counters/StatsTable
// never blocks an acquire), entry pin counts are atomics, and a
// steady-state acquire/release cycle performs zero allocations. The API
// is the value-type Lease: AcquireLeaseCtx, AcquireFast and
// TryAcquireLease hand one out, Release and Revoke take it back.
//
// AcquireLeaseCtx is the deadline-bounded path: a waiter whose context
// ends leaves the lease queue without leaking a handle, and a leased
// competitor withdraws from the register competition through the root
// package's abortable back-out — both outcomes are counted per shard
// (LeaseTimeouts, Aborts). The manager cross-checks mutual exclusion on
// every grant (a per-lock holder counter that must step 0→1→0) and feeds
// per-shard contention and throughput counters into a stats.Table for
// the experiment harness and the lockd service.
package lockmgr

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"anonmutex"
	"anonmutex/internal/stats"
)

// Config parameterizes a Manager. The zero value of every field means
// "default".
type Config struct {
	// Shards is the number of independent shards K (default 16).
	Shards int
	// Algorithm selects the per-name lock: anonmutex.RW or anonmutex.RMW
	// (default RMW — the cheaper majority entry cost).
	Algorithm anonmutex.Algorithm
	// HandlesPerLock is each named lock's fixed process count n ≥ 2
	// (default 8): the maximum number of clients simultaneously competing
	// for one name; further clients queue in the lease pool.
	HandlesPerLock int
	// Registers is the per-lock anonymous memory size m (default 0: the
	// smallest legal size above 1 for the algorithm and n, 11 at n = 8;
	// m = 1 is legal for RMW and must be given).
	Registers int
	// MaxLocksPerShard bounds each shard's resident lock table (default
	// 1024). Beyond it, the least-recently-used idle lock is evicted (and
	// re-keyed to the new name when it has at most one handle).
	MaxLocksPerShard int
	// Seed drives each lock's anonymity adversary. A lock's permutations
	// are drawn, from Seed and the name it serves first, when it is first
	// materialized: a lock the full table re-keys to another name keeps
	// them. The paper's adversary may assign any permutations, so
	// correctness does not depend on which.
	Seed uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.Shards == 0 {
		c.Shards = 16
	}
	if c.Shards < 1 {
		return c, fmt.Errorf("lockmgr: need Shards >= 1, got %d", c.Shards)
	}
	if c.Algorithm == 0 {
		c.Algorithm = anonmutex.RMW
	}
	if c.Algorithm != anonmutex.RW && c.Algorithm != anonmutex.RMW {
		return c, fmt.Errorf("lockmgr: unknown algorithm %v", c.Algorithm)
	}
	if c.HandlesPerLock == 0 {
		c.HandlesPerLock = 8
	}
	if c.HandlesPerLock < 2 || c.HandlesPerLock > math.MaxInt32 {
		return c, fmt.Errorf("lockmgr: need 2 <= HandlesPerLock <= %d, got %d", math.MaxInt32, c.HandlesPerLock)
	}
	if c.Registers < 0 {
		return c, fmt.Errorf("lockmgr: need Registers >= 0, got %d", c.Registers)
	}
	if c.MaxLocksPerShard == 0 {
		c.MaxLocksPerShard = 1024
	}
	if c.MaxLocksPerShard < 1 {
		return c, fmt.Errorf("lockmgr: need MaxLocksPerShard >= 1, got %d", c.MaxLocksPerShard)
	}
	return c, nil
}

// Manager is the sharded named-lock manager. Safe for concurrent use.
type Manager struct {
	cfg        Config
	shards     []*shard
	violations atomic.Uint64
}

// shardCounters is a shard's bookkeeping, updated with atomics so the
// hot path never takes the shard mutex just to count, and Counters/
// StatsTable never block an acquire to read.
type shardCounters struct {
	acquires, releases   atomic.Uint64
	revokes              atomic.Uint64
	tryAcquires          atomic.Uint64
	tryFailures          atomic.Uint64
	waits                atomic.Uint64
	leaseTimeouts        atomic.Uint64
	aborts               atomic.Uint64
	lockCreates, hits    atomic.Uint64
	evictions            atomic.Uint64
	resident             atomic.Int64
	waitCount, waitNanos atomic.Uint64 // acquires that waited (see StatsTable), and their waits
}

func (c *shardCounters) snapshot() Counters {
	return Counters{
		Acquires:      c.acquires.Load(),
		Releases:      c.releases.Load(),
		Revokes:       c.revokes.Load(),
		TryAcquires:   c.tryAcquires.Load(),
		TryFailures:   c.tryFailures.Load(),
		Waits:         c.waits.Load(),
		LeaseTimeouts: c.leaseTimeouts.Load(),
		Aborts:        c.aborts.Load(),
		LockCreates:   c.lockCreates.Load(),
		Hits:          c.hits.Load(),
		Evictions:     c.evictions.Load(),
		ResidentLocks: int(c.resident.Load()),
	}
}

// shard owns one partition of the name space. The mutex guards only the
// name table and recency list; counters are atomic, and lease traffic
// runs through each entry's own pool.
type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	// The recency list, threaded through the entries' own prev/next:
	// hot is the most recently promoted entry, cold the eviction scan's
	// starting point.
	hot, cold *entry

	c shardCounters
}

// entry is one resident named lock: table slot, recency-list node and
// lease pool in one object.
type entry struct {
	// name changes only under the shard mutex, while refs is 0 (a full
	// table re-keys the entry), so whoever holds a pin reads it freely;
	// after unpinning, it may name another lock.
	name string
	sh   *shard
	// prev points toward the hot end, next toward the cold end; both are
	// guarded by the shard mutex.
	prev, next *entry
	// refs counts checked-out grants + queued acquirers; evictable only
	// at 0. Pins (0→up) happen under the shard mutex; unpins are a plain
	// atomic decrement on the release path.
	refs atomic.Int32
	held atomic.Int32 // grants inside the critical section: must step 0→1→0
	// touched is the CLOCK recency bit: set on every hit (under the shard
	// mutex the hit already holds for the map lookup), consumed by
	// evictColdest, which batch-promotes touched entries instead of
	// reordering the list on every hit.
	touched bool
	pool    leasePool
}

// pushHot links e in at the hot end. Called with the shard lock held.
func (sh *shard) pushHot(e *entry) {
	e.prev, e.next = nil, sh.hot
	if sh.hot != nil {
		sh.hot.prev = e
	} else {
		sh.cold = e
	}
	sh.hot = e
}

// unlink takes e out of the recency list. Called with the shard lock held.
func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.hot = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.cold = e.prev
	}
	e.prev, e.next = nil, nil
}

// Counters aggregates a shard's (or with Manager.Counters, the whole
// manager's) bookkeeping.
type Counters struct {
	// Acquires and Releases count completed blocking operations;
	// TryAcquires counts attempts, TryFailures the unavailable ones.
	Acquires, Releases, TryAcquires, TryFailures uint64
	// Revokes counts forcible releases through Revoke — a lease
	// subsystem reclaiming an orphaned holder's grant on its behalf.
	Revokes uint64
	// Waits counts acquirers that queued for a handle (all n leased).
	Waits uint64
	// LeaseTimeouts counts acquirers whose context ended while queued for
	// a handle; Aborts counts acquirers that leased a handle but withdrew
	// from the register competition when their context ended. Both leave
	// the manager clean: no handle is leaked and no register keeps the
	// withdrawn process's identity.
	LeaseTimeouts, Aborts uint64
	// LockCreates and Hits split name lookups into cold and warm;
	// Evictions counts names the full table dropped. A cold name that
	// takes over an evicted lock counts one of each.
	LockCreates, Hits, Evictions uint64
	// ResidentLocks is the current table population.
	ResidentLocks int
}

func (a Counters) add(b Counters) Counters {
	a.Acquires += b.Acquires
	a.Releases += b.Releases
	a.Revokes += b.Revokes
	a.TryAcquires += b.TryAcquires
	a.TryFailures += b.TryFailures
	a.Waits += b.Waits
	a.LeaseTimeouts += b.LeaseTimeouts
	a.Aborts += b.Aborts
	a.LockCreates += b.LockCreates
	a.Hits += b.Hits
	a.Evictions += b.Evictions
	a.ResidentLocks += b.ResidentLocks
	return a
}

// New creates a manager.
func New(cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := &Manager{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range m.shards {
		m.shards[i] = &shard{entries: make(map[string]*entry)}
	}
	return m, nil
}

// hash is FNV-1a over the name, inlined so the hot path neither
// constructs a hasher nor copies the name to a byte slice.
func hash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

func (m *Manager) shard(name string) *shard {
	return m.shards[hash(name)%uint64(len(m.shards))]
}

// newLock materializes the anonmutex lock behind one name.
func (m *Manager) newLock(name string) (*lockSource, error) {
	opts := []anonmutex.Option{anonmutex.WithSeed(m.cfg.Seed ^ hash(name))}
	if m.cfg.Registers > 0 {
		opts = append(opts, anonmutex.WithRegisters(m.cfg.Registers))
	}
	l, err := anonmutex.NewLock(m.cfg.Algorithm, m.cfg.HandlesPerLock, opts...)
	if err != nil {
		return nil, err
	}
	return (*lockSource)(l), nil
}

// pin finds the entry for name in its shard sh (creating it, and evicting
// a cold one, as needed) and pins it against eviction — one shard critical section. With
// unlessHeld, a resident entry whose lock is visibly inside a critical
// section is left unpinned and nil is returned: the non-blocking paths'
// holder check, made in the lookup they need anyway.
func (m *Manager) pin(sh *shard, name string, unlessHeld bool) (*entry, error) {
	sh.mu.Lock()
	if e, ok := sh.entries[name]; ok {
		if unlessHeld && e.held.Load() > 0 {
			sh.mu.Unlock()
			return nil, nil
		}
		e.touched = true
		e.refs.Add(1)
		sh.mu.Unlock()
		sh.c.hits.Add(1)
		return e, nil
	}
	var e *entry
	if len(sh.entries) >= m.cfg.MaxLocksPerShard {
		e = sh.evictColdest()
	}
	if e == nil {
		l, err := m.newLock(name)
		if err != nil {
			sh.mu.Unlock()
			return nil, err
		}
		e = &entry{sh: sh, pool: leasePool{src: l, capacity: int32(m.cfg.HandlesPerLock)}}
	}
	e.name = name
	e.refs.Store(1)
	sh.pushHot(e)
	sh.entries[name] = e
	sh.mu.Unlock()
	sh.c.lockCreates.Add(1)
	sh.c.resident.Add(1)
	return e, nil
}

// checkout pins the entry for name and leases a handle from its pool,
// queueing for one when all n are leased out; queued is when it began
// to, zero if it did not. A caller whose ctx ends while queued unpins
// and leaves empty-handed with ctx's error, counted as a lease timeout.
func (m *Manager) checkout(ctx context.Context, name string) (e *entry, h procHandle, queued time.Time, err error) {
	e, err = m.pin(m.shard(name), name, false)
	if err != nil {
		return nil, nil, queued, err
	}
	h, queued, err = e.pool.lease(ctx)
	if !queued.IsZero() {
		e.sh.c.waits.Add(1)
	}
	if err != nil {
		e.refs.Add(-1)
		e.sh.c.leaseTimeouts.Add(1)
		return nil, nil, queued, fmt.Errorf("lockmgr: acquiring %q: queued for a handle: %w", name, err)
	}
	return e, h, queued, nil
}

// evictColdest removes the least-recently-used idle entry from the table
// and, when it can serve another name, hands it back for pin to re-key.
// Called with the shard lock held. The scan is the CLOCK second-chance
// pass: walking from the cold end, every pinned or touched entry is
// promoted to the front (its touch bit cleared — this is where the hit
// path's deferred move-to-hot-end work happens, in one batch), and the
// first cold unpinned entry is evicted. A shard whose every entry is
// pinned or perpetually touched simply overflows its bound until one
// goes idle, and evictColdest returns nil.
//
// The victim is idle: refs == 0 under the shard mutex means every
// materialized handle is parked (pins only rise under this mutex), its
// owner has left the critical section or backed out, and so every
// register holds ⊥ and no parked handle owns one — the state a fresh lock
// starts in, and the one Process.Close's re-lease relies on. So a victim
// keeps its lock, registers and parked handle for the next name. One
// that materialized more than one handle is closed and dropped instead
// (nil is returned), so a name once contended cannot keep n handles in
// the table. Closing only the extra handles would not do: Process.Close
// parks a handle on its lock's free list for re-lease, so only dropping
// the lock frees them.
func (sh *shard) evictColdest() *entry {
	// Two passes over the list suffice: the first pass clears every touch
	// bit it meets, so the second finds a victim unless everything is
	// pinned.
	for i, e := 0, sh.cold; e != nil && i < 2*len(sh.entries)+1; i++ {
		colder := e.prev
		if e.refs.Load() > 0 || e.touched {
			e.touched = false
			sh.unlink(e)
			sh.pushHot(e)
			e = colder
			continue
		}
		sh.unlink(e)
		delete(sh.entries, e.name)
		sh.c.evictions.Add(1)
		sh.c.resident.Add(-1)
		if e.pool.handles() <= 1 {
			return e
		}
		// closeIdle cannot fail on an idle entry; a failure would be a
		// manager bug and the entry is dropped either way (its arena is
		// unreachable).
		_ = e.pool.closeIdle()
		return nil
	}
	return nil
}

// Lease is a held named lock, as returned by AcquireLeaseCtx,
// AcquireFast and TryAcquireLease. A Lease is a value — nothing is
// heap-allocated per acquire — and must be given back through
// Manager.Release (or Revoke) exactly once; the zero Lease is invalid.
type Lease struct {
	e *entry
	h procHandle
}

// Valid reports whether the lease holds a lock.
func (l Lease) Valid() bool { return l.e != nil }

// Name returns the held lock's name. It is valid only while the lease is
// held: once released (or revoked by the lease layer) the lock no longer
// pins its entry, which a full table may re-key to another name.
func (l Lease) Name() string { return l.e.name }

// AcquireLeaseCtx blocks until the caller holds the named lock,
// queueing for a process handle when all n are leased and then competing
// through the anonymous-register algorithm. A caller whose ctx is
// cancelled or deadlined gives up cleanly at whichever stage it has
// reached — a queued waiter leaves the lease queue (no handle leaked, no
// successor reordered), and a leased competitor withdraws from the
// anonymous-register competition via the abortable-mutex back-out before
// its handle returns to the pool. Either way it returns ctx's error
// (test with errors.Is) and the per-shard LeaseTimeouts or Aborts
// counter steps. The steady-state acquire/release cycle through it
// performs zero heap allocations.
func (m *Manager) AcquireLeaseCtx(ctx context.Context, name string) (Lease, error) {
	e, h, waitStart, err := m.checkout(ctx, name)
	if err != nil {
		return Lease{}, err
	}
	// The clock is read only for an acquire that waits: one that queued
	// for a handle, or finds the lock held and so parks until the
	// holder's release.
	if waitStart.IsZero() && e.held.Load() > 0 {
		waitStart = time.Now()
	}
	if err := h.LockCtx(ctx); err != nil {
		m.checkin(e, h, false)
		e.sh.c.aborts.Add(1)
		return Lease{}, fmt.Errorf("lockmgr: acquiring %q: %w", name, err)
	}
	if e.held.Add(1) != 1 {
		m.violations.Add(1)
	}
	e.sh.c.acquires.Add(1)
	if !waitStart.IsZero() {
		e.sh.c.waitCount.Add(1)
		e.sh.c.waitNanos.Add(uint64(time.Since(waitStart).Nanoseconds()))
	}
	return Lease{e: e, h: h}, nil
}

// AcquireFast is the uncontended fast path: it acquires the named lock
// only if that succeeds without waiting — no queueing for a handle, no
// holder to wait out — and reports ok=false otherwise, leaving the
// caller to fall back to AcquireLeaseCtx with its contexts and
// cancellation machinery. The register-level attempt is the process
// handle's hard-bounded TryLock, so even a competitor that wins the
// race after the holder check costs a bounded handful of shared-memory
// operations, never a critical-section wait. It performs no heap
// allocation once the name is resident.
func (m *Manager) AcquireFast(name string) (Lease, bool, error) {
	return m.tryAcquire(name, false)
}

// TryAcquireLease acquires the named lock only if it is immediately
// available: it fails fast when another lease holds the lock, all n
// handles are leased out, or the bounded register-level attempt
// (TryLock: at most ~4m shared-memory operations, never a sleep) does
// not enter. It never waits out another acquirer's critical section.
func (m *Manager) TryAcquireLease(name string) (Lease, bool, error) {
	return m.tryAcquire(name, true)
}

// tryAcquire is the shared non-blocking path. countTry selects the
// TryAcquires/TryFailures bookkeeping (client-visible try ops) — the
// AcquireFast probe stays out of those counters so stats keep meaning
// "explicit try requests".
func (m *Manager) tryAcquire(name string, countTry bool) (Lease, bool, error) {
	sh := m.shard(name)
	fail := func() (Lease, bool, error) {
		if countTry {
			sh.c.tryFailures.Add(1)
		}
		return Lease{}, false, nil
	}
	if countTry {
		sh.c.tryAcquires.Add(1)
	}
	e, err := m.pin(sh, name, true)
	if err != nil {
		return Lease{}, false, err
	}
	if e == nil { // held
		return fail()
	}
	h, err := e.pool.tryLease()
	if err != nil {
		e.refs.Add(-1)
		return Lease{}, false, err
	}
	if h == nil { // pool exhausted
		e.refs.Add(-1)
		return fail()
	}
	// Re-check now that the lease is in hand — cheaper than burning the
	// bounded attempt below on a visibly held lock.
	if e.held.Load() > 0 {
		m.checkin(e, h, false)
		return fail()
	}
	won, err := h.TryLock()
	if err != nil {
		m.checkin(e, h, false)
		return Lease{}, false, err
	}
	if !won {
		// A competitor won the register race: the bounded attempt
		// withdrew cleanly instead of waiting out their critical section.
		m.checkin(e, h, false)
		return fail()
	}
	if e.held.Add(1) != 1 {
		m.violations.Add(1)
	}
	sh.c.acquires.Add(1)
	return Lease{e: e, h: h}, true, nil
}

// Release leaves the lease's critical section and returns the leased
// handle to the lock's pool. A Lease may be released exactly once;
// releasing a copy twice corrupts the holder cross-check.
func (m *Manager) Release(l Lease) error {
	// Step the holder counter down while still inside the critical
	// section, so a successor's 0→1 check cannot race our decrement.
	l.e.held.Add(-1)
	if err := l.h.Unlock(); err != nil {
		return err
	}
	m.checkin(l.e, l.h, true)
	return nil
}

// Revoke forcibly releases a lease on behalf of a holder that will
// never release it itself — the lease subsystem's reclamation of an
// expired grant. The revoking goroutine executes the holder's
// register-safe critical-section exit on the orphan's own process
// handle (identity and permutation attach to the handle, not the
// goroutine — the same property the abortable withdraw relies on), so
// the anonymous-register slot is left clean and the handle returns to
// the lease pool for reuse. It is Release with its own counter: stats
// keep "the holder gave it back" and "the manager took it back"
// distinguishable.
func (m *Manager) Revoke(l Lease) error {
	l.e.held.Add(-1)
	if err := l.h.Unlock(); err != nil {
		return err
	}
	l.e.pool.release(l.h)
	l.e.refs.Add(-1)
	l.e.sh.c.revokes.Add(1)
	return nil
}

// checkin parks the handle and unpins the entry. countRelease marks a
// completed client release (vs. an internal unwind).
func (m *Manager) checkin(e *entry, h procHandle, countRelease bool) {
	e.pool.release(h)
	e.refs.Add(-1)
	if countRelease {
		e.sh.c.releases.Add(1)
	}
}

// Violations reports mutual-exclusion violations observed by the per-lock
// holder cross-check — 0 unless the underlying algorithms are broken.
func (m *Manager) Violations() uint64 { return m.violations.Load() }

// Counters returns the manager-wide aggregate. It reads only atomics:
// stats never serialize against acquire traffic.
func (m *Manager) Counters() Counters {
	var total Counters
	for _, sh := range m.shards {
		total = total.add(sh.c.snapshot())
	}
	return total
}

// StatsTable renders per-shard contention and throughput counters in the
// experiment harness's table format (one row per shard plus a total row).
// "mean wait µs" averages over the blocking acquires that waited —
// queued for a handle or found the lock held — from the start of the
// wait to entry; acquires that did not wait are not in it.
func (m *Manager) StatsTable() *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("lockmgr — %d shards, alg=%s, n=%d/lock, LRU=%d/shard",
			len(m.shards), m.cfg.Algorithm, m.cfg.HandlesPerLock, m.cfg.MaxLocksPerShard),
		Header: []string{"shard", "locks", "acquires", "releases", "waits",
			"aborts", "lease-timeouts", "try-fail", "creates", "hits", "evictions", "mean wait µs"},
	}
	var total Counters
	var waitN, waitSum uint64
	for i, sh := range m.shards {
		c := sh.c.snapshot()
		n, sum := sh.c.waitCount.Load(), sh.c.waitNanos.Load()
		total = total.add(c)
		waitN += n
		waitSum += sum
		if c.Acquires == 0 && c.TryAcquires == 0 && c.ResidentLocks == 0 {
			continue // keep quiet shards out of the table
		}
		mean := 0.0
		if n > 0 {
			mean = float64(sum) / float64(n) / 1e3
		}
		t.AddRow(i, c.ResidentLocks, c.Acquires, c.Releases, c.Waits,
			c.Aborts, c.LeaseTimeouts, c.TryFailures, c.LockCreates, c.Hits, c.Evictions, mean)
	}
	meanAll := 0.0
	if waitN > 0 {
		meanAll = float64(waitSum) / float64(waitN) / 1e3
	}
	t.AddRow("total", total.ResidentLocks, total.Acquires, total.Releases, total.Waits,
		total.Aborts, total.LeaseTimeouts, total.TryFailures, total.LockCreates,
		total.Hits, total.Evictions, meanAll)
	t.Notes = append(t.Notes,
		fmt.Sprintf("mutual-exclusion violations observed by the holder cross-check: %d", m.Violations()))
	return t
}

// Close tears the manager down, closing every pooled handle. It fails if
// any lease is still outstanding.
func (m *Manager) Close() error {
	for _, sh := range m.shards {
		sh.mu.Lock()
		for name, e := range sh.entries {
			if refs := e.refs.Load(); refs > 0 {
				sh.mu.Unlock()
				return fmt.Errorf("lockmgr: Close with %d outstanding leases on %q", refs, name)
			}
			if err := e.pool.closeIdle(); err != nil {
				sh.mu.Unlock()
				return err
			}
			sh.unlink(e)
			delete(sh.entries, name)
			sh.c.resident.Add(-1)
		}
		sh.mu.Unlock()
	}
	return nil
}
