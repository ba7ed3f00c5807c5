package anonmutex

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"anonmutex/internal/amem"
	"anonmutex/internal/core"
	"anonmutex/internal/engine"
	"anonmutex/internal/id"
	"anonmutex/internal/mset"
)

// Algorithm names a mutual exclusion protocol: one of the paper's two
// algorithms, which a Lock runs, or the strawman the research harness
// breaks on purpose. The zero value is not an algorithm.
type Algorithm uint8

const (
	// RW is the paper's Algorithm 1: read/write registers, any m ∈ M(n)
	// with m ≥ n; a process enters on a snapshot in which it owns all m.
	RW Algorithm = iota + 1
	// RMW is the paper's Algorithm 2: read, write and compare&swap, any
	// m ∈ M(n) including m = 1; a process enters on a strict majority.
	RMW
	// Greedy is a deliberately broken strawman (internal/strawman) that
	// enters on a tie. It exists so the model checker and the Theorem 5
	// construction can show a mutual-exclusion violation; NewLock rejects
	// it.
	Greedy
)

// String returns the name the command-line tools and scenario files use:
// "rw", "rmw" or "greedy".
func (a Algorithm) String() string {
	switch a {
	case RW:
		return "rw"
	case RMW:
		return "rmw"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// ParseAlgorithm is the inverse of String.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range []Algorithm{RW, RMW, Greedy} {
		if s == a.String() {
			return a, nil
		}
	}
	return 0, fmt.Errorf("anonmutex: unknown algorithm %q (want %v, %v or %v)", s, RW, RMW, Greedy)
}

// MarshalText encodes a as its String name.
func (a Algorithm) MarshalText() ([]byte, error) {
	if a < RW || a > Greedy {
		return nil, fmt.Errorf("anonmutex: cannot encode %v", a)
	}
	return []byte(a.String()), nil
}

// UnmarshalText decodes a name ParseAlgorithm accepts.
func (a *Algorithm) UnmarshalText(text []byte) (err error) {
	*a, err = ParseAlgorithm(string(text))
	return err
}

// Lock is an n-process symmetric deadlock-free mutual exclusion lock over
// m anonymous registers, running the paper's Algorithm 1 or 2 as chosen
// at construction. Everything but the per-process state machine — handle
// issue and recycling, the abortable entry, the counters — is the same
// for both.
//
// Create per-goroutine handles with NewProcess. The lock itself is safe
// for concurrent use; each handle belongs to one goroutine at a time.
type Lock struct {
	n, m int
	cfg  config
	mem  *amem.Memory
	gen  id.Generator // zero value: sequential identities

	mu     sync.Mutex
	issued int
	free   []*Process // closed handles awaiting re-lease
}

// The paper's names for the two locks and their handles: one pair of
// types, since which algorithm a Lock runs is a value.
type (
	RWLock     = Lock
	RMWLock    = Lock
	RWProcess  = Process
	RMWProcess = Process
)

// NewLock creates an anonymous-register lock for n ≥ 2 processes running
// alg. Without WithRegisters the memory size is MinRegistersRW(n) or
// MinRegistersRMW(n); an explicit size must satisfy the paper's tight
// characterization: m ∈ M(n), and m ≥ n for RW (any m ∈ M(n), including
// m = 1, is legal for RMW).
func NewLock(alg Algorithm, n int, opts ...Option) (*Lock, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	cfg.alg = alg
	if n < 2 {
		return nil, fmt.Errorf("anonmutex: %v lock needs n >= 2 processes, got %d", alg, n)
	}
	m := cfg.m
	switch alg {
	case RW:
		if m == 0 {
			m = mset.MinRW(n)
		}
		err = mset.ValidateRW(n, m)
	case RMW:
		if m == 0 {
			m = mset.MinRMWAbove(n)
		}
		err = mset.ValidateRMW(n, m)
	default:
		err = fmt.Errorf("no lock runs algorithm %v (want RW or RMW)", alg)
	}
	if err != nil {
		return nil, fmt.Errorf("anonmutex: %w", err)
	}
	return &Lock{n: n, m: m, cfg: cfg, mem: amem.New(m)}, nil
}

// NewRWLock is NewLock(RW, n, opts...): the paper's Algorithm 1.
func NewRWLock(n int, opts ...Option) (*RWLock, error) { return NewLock(RW, n, opts...) }

// NewRMWLock is NewLock(RMW, n, opts...): the paper's Algorithm 2.
func NewRMWLock(n int, opts ...Option) (*RMWLock, error) { return NewLock(RMW, n, opts...) }

// N returns the configured number of processes.
func (l *Lock) N() int { return l.n }

// M returns the anonymous memory size.
func (l *Lock) M() int { return l.m }

// NewProcess allocates one of the lock's n process handles: a fresh slot
// while any remain, otherwise a handle recycled by Close. When all n
// slots are live it returns an error; Close a handle to free one.
func (l *Lock) NewProcess() (*Process, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k := len(l.free); k > 0 {
		p := l.free[k-1]
		l.free = l.free[:k-1]
		p.closed = false
		return p, nil
	}
	if l.issued >= l.n {
		return nil, fmt.Errorf("anonmutex: lock configured for %d processes and none released", l.n)
	}
	i := l.issued
	me, err := l.gen.New()
	if err != nil {
		return nil, fmt.Errorf("anonmutex: issuing identity: %w", err)
	}
	// With the sizes in NewLock, the only place the two algorithms differ.
	var machine core.Machine
	switch {
	case l.cfg.alg == RMW:
		machine, err = core.NewAlg2(me, l.n, l.m, core.Alg2Config{SoloFastPath: !l.cfg.noFastPath})
	case l.cfg.firstBottom:
		machine, err = core.NewAlg1(me, l.n, l.m, core.Alg1Config{Choice: core.ChooseFirstBottom})
	default:
		machine, err = core.NewAlg1(me, l.n, l.m, core.Alg1Config{Choice: core.ChooseRandomBottom, Rand: l.cfg.rng(i)})
	}
	if err != nil {
		return nil, fmt.Errorf("anonmutex: %w", err)
	}
	view, err := l.mem.NewView(me, l.cfg.adversary().Assign(i, l.m))
	if err != nil {
		return nil, fmt.Errorf("anonmutex: %w", err)
	}
	l.issued++
	return &Process{
		lock:   l,
		view:   view,
		driver: newDriver(machine, engine.Hardware(view)),
	}, nil
}

// newDriver builds each handle's driver. Tests swap in one whose park cap
// is a minute, so that a lost wake shows as a hang rather than a delay.
var newDriver = engine.NewDriver

// Process is one process's handle on a Lock. Not safe for concurrent use:
// a handle belongs to one goroutine at a time.
type Process struct {
	lock   *Lock
	view   *amem.View
	driver *engine.Driver // and, through Machine(), the machine: 32 bytes in all
	closed bool
}

// Lock acquires the critical section. It returns an error only on
// life-cycle misuse (locking a closed handle or one that already holds
// the lock).
func (p *Process) Lock() error {
	if p.closed {
		return fmt.Errorf("anonmutex: Lock on a closed handle")
	}
	if err := p.driver.Machine().StartLock(); err != nil {
		return fmt.Errorf("anonmutex: %w", err)
	}
	if err := p.driver.Drive(); err != nil {
		return fmt.Errorf("anonmutex: %w", err)
	}
	return nil
}

// LockCtx acquires the critical section, abandoning the attempt when ctx
// is cancelled or its deadline passes. An abandoned attempt withdraws
// cleanly: the process erases its identity from every anonymous register
// it touched (the abortable-mutex back-out, a bounded wait-free sweep —
// read-and-erase for RW, compare&swap for RMW), so the remaining
// competitors proceed as if this process had never entered the entry
// section. Cancellation is reported as ctx's error (test with errors.Is
// against context.Canceled or DeadlineExceeded); if the lock is acquired
// before the cancellation is observed, LockCtx returns nil and the caller
// holds the lock.
func (p *Process) LockCtx(ctx context.Context) error {
	if p.closed {
		return fmt.Errorf("anonmutex: LockCtx on a closed handle")
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("anonmutex: lock aborted: %w", err)
	}
	if err := p.driver.Machine().StartLock(); err != nil {
		return fmt.Errorf("anonmutex: %w", err)
	}
	if err := p.driver.DriveContext(ctx); err != nil {
		return fmt.Errorf("anonmutex: lock aborted: %w", err)
	}
	return nil
}

// TryLock attempts the critical section without waiting: it runs at
// most 2m+2 shared-memory operations (snapshots counting as one) —
// enough for any uncontended acquisition, which takes 2m+1 under RW and
// m under RMW (2m without the solo fast path) — and, if the lock has not
// been entered by then, withdraws via the bounded erase sweep and reports
// false. The whole call executes a hard-bounded number of operations and
// never parks, unlike TryLockFor's wall-clock bound. Errors are reserved
// for life-cycle misuse.
func (p *Process) TryLock() (bool, error) {
	if p.closed {
		return false, fmt.Errorf("anonmutex: TryLock on a closed handle")
	}
	if err := p.driver.Machine().StartLock(); err != nil {
		return false, fmt.Errorf("anonmutex: %w", err)
	}
	ok, err := p.driver.TryDriveBounded(2*p.lock.m + 2)
	if err != nil {
		return false, fmt.Errorf("anonmutex: %w", err)
	}
	return ok, nil
}

// TryLockFor acquires the critical section if it can do so within d,
// reporting whether the lock is now held. Expiry is not an error: the
// attempt withdraws cleanly (see LockCtx) and TryLockFor returns
// (false, nil). Errors are reserved for life-cycle misuse.
func (p *Process) TryLockFor(d time.Duration) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	err := p.LockCtx(ctx)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, context.DeadlineExceeded):
		return false, nil
	default:
		return false, err
	}
}

// Aborts reports how many lock attempts this handle has withdrawn
// (LockCtx cancellations, TryLockFor expiries and failed TryLocks).
func (p *Process) Aborts() uint64 { return p.driver.Aborts() }

// Unlock releases the critical section. It returns an error only on
// life-cycle misuse (unlocking a closed handle or one that does not hold
// the lock).
func (p *Process) Unlock() error {
	if p.closed {
		return fmt.Errorf("anonmutex: Unlock on a closed handle")
	}
	if err := p.driver.Machine().StartUnlock(); err != nil {
		return fmt.Errorf("anonmutex: %w", err)
	}
	if err := p.driver.Drive(); err != nil {
		return fmt.Errorf("anonmutex: %w", err)
	}
	return nil
}

// Close releases the handle's slot back to the lock so a future
// NewProcess call can re-lease it — the lifecycle primitive lease pools
// build on. Only an idle handle (not holding the lock) can be closed.
//
// The slot keeps its identity, permutation, and write-stamp sequence
// across leases: an idle process of either algorithm owns no registers,
// and the preserved sequence number keeps every future write stamp fresh,
// so a recycled handle is indistinguishable from one that simply changed
// goroutines. Using a handle after Close is a bug; the handle's methods
// fail until NewProcess hands it out again.
func (p *Process) Close() error {
	if p.closed {
		return fmt.Errorf("anonmutex: Close on a closed handle")
	}
	if p.driver.Machine().Status() != core.StatusIdle {
		return fmt.Errorf("anonmutex: Close on a handle that holds the lock")
	}
	l := p.lock
	l.mu.Lock()
	defer l.mu.Unlock()
	p.closed = true
	l.free = append(l.free, p)
	return nil
}

// LockSteps reports the number of shared-memory operations (snapshots
// counting as one) performed by the most recent Lock call.
func (p *Process) LockSteps() int { return p.driver.Machine().LockSteps() }

// OwnedAtEntry reports how many registers held this process's identity
// when it last entered the critical section: always M() under RW, the
// paper's RW-model entry cost; under RMW a strict majority of M(), and
// typically far less than all of it.
func (p *Process) OwnedAtEntry() int { return p.driver.Machine().OwnedAtEntry() }

// SnapshotStats reports how many snapshot operations this process has
// performed and the total number of double-scan collect passes they
// needed (collects/calls − 1 is the retry rate caused by concurrent
// writers). Algorithm 2 never takes a snapshot: an RMW handle reads
// (0, 0).
func (p *Process) SnapshotStats() (calls, collects uint64) {
	return p.view.SnapshotStats()
}
