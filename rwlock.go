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

// RWLock is the paper's Algorithm 1: an n-process symmetric deadlock-free
// mutual exclusion lock over m anonymous read/write registers, for any
// m ∈ M(n) with m ≥ n. Entering the critical section requires a snapshot
// in which the process owns all m registers.
//
// Create per-goroutine handles with NewProcess. The lock itself is safe
// for concurrent use; each handle belongs to one goroutine at a time.
type RWLock struct {
	n, m int
	cfg  config
	mem  *amem.Memory
	gen  id.Generator // zero value: sequential identities

	mu     sync.Mutex
	issued int
	free   []*RWProcess // closed handles awaiting re-lease
}

// NewRWLock creates an anonymous read/write-register lock for n ≥ 2
// processes. Without WithRegisters the memory size is the optimal
// MinRegistersRW(n); an explicit size must satisfy the paper's tight
// characterization m ∈ M(n), m ≥ n.
func NewRWLock(n int, opts ...Option) (*RWLock, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("anonmutex: RWLock needs n >= 2 processes, got %d", n)
	}
	m := cfg.m
	if m == 0 {
		m = mset.MinRW(n)
	}
	if err := mset.ValidateRW(n, m); err != nil {
		return nil, fmt.Errorf("anonmutex: %w", err)
	}
	return &RWLock{n: n, m: m, cfg: cfg, mem: amem.New(m)}, nil
}

// N returns the configured number of processes.
func (l *RWLock) N() int { return l.n }

// M returns the anonymous memory size.
func (l *RWLock) M() int { return l.m }

// NewProcess allocates one of the lock's n process handles: a fresh slot
// while any remain, otherwise a handle recycled by Close. When all n
// slots are live it returns an error; Close a handle to free one.
func (l *RWLock) NewProcess() (*RWProcess, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k := len(l.free); k > 0 {
		p := l.free[k-1]
		l.free = l.free[:k-1]
		p.closed = false
		return p, nil
	}
	if l.issued >= l.n {
		return nil, fmt.Errorf("anonmutex: RWLock configured for %d processes and none released", l.n)
	}
	i := l.issued
	me, err := l.gen.New()
	if err != nil {
		return nil, fmt.Errorf("anonmutex: issuing identity: %w", err)
	}
	mcfg := core.Alg1Config{Choice: core.ChooseRandomBottom, Rand: l.cfg.rng(i)}
	if l.cfg.firstBottom {
		mcfg = core.Alg1Config{Choice: core.ChooseFirstBottom}
	}
	machine, err := core.NewAlg1(me, l.n, l.m, mcfg)
	if err != nil {
		return nil, fmt.Errorf("anonmutex: %w", err)
	}
	view, err := l.mem.NewView(me, l.cfg.adversary().Assign(i, l.m))
	if err != nil {
		return nil, fmt.Errorf("anonmutex: %w", err)
	}
	l.issued++
	return &RWProcess{
		lock:    l,
		machine: machine,
		view:    view,
		driver:  engine.NewDriver(machine, engine.Hardware(view)),
	}, nil
}

// RWProcess is one process's handle on an RWLock. Not safe for concurrent
// use: a handle belongs to one goroutine at a time.
type RWProcess struct {
	lock    *RWLock
	machine *core.Alg1Machine
	view    *amem.View
	driver  *engine.Driver
	closed  bool
}

// Lock acquires the critical section. It returns an error only on
// life-cycle misuse (locking a closed handle or one that already holds
// the lock).
func (p *RWProcess) Lock() error {
	if p.closed {
		return fmt.Errorf("anonmutex: Lock on a closed handle")
	}
	if err := p.machine.StartLock(); err != nil {
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
// it touched (the abortable-mutex back-out, a bounded wait-free sweep),
// so the remaining competitors proceed as if this process had never
// entered the entry section. Cancellation is reported as ctx's error
// (test with errors.Is against context.Canceled or DeadlineExceeded); if
// the lock is acquired before the cancellation is observed, LockCtx
// returns nil and the caller holds the lock.
func (p *RWProcess) LockCtx(ctx context.Context) error {
	if p.closed {
		return fmt.Errorf("anonmutex: LockCtx on a closed handle")
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("anonmutex: lock aborted: %w", err)
	}
	if err := p.machine.StartLock(); err != nil {
		return fmt.Errorf("anonmutex: %w", err)
	}
	if err := p.driver.DriveContext(ctx); err != nil {
		return fmt.Errorf("anonmutex: lock aborted: %w", err)
	}
	return nil
}

// TryLock attempts the critical section without waiting: it runs at
// most 2m+2 shared-memory operations (snapshots counting as one) —
// enough for any uncontended acquisition, which takes 2m+1 — and, if
// the lock has not been entered by then, withdraws via the bounded
// read-and-erase sweep and reports false. The whole call executes a
// hard-bounded number of operations and never sleeps, unlike
// TryLockFor's wall-clock bound. Errors are reserved for life-cycle
// misuse.
func (p *RWProcess) TryLock() (bool, error) {
	if p.closed {
		return false, fmt.Errorf("anonmutex: TryLock on a closed handle")
	}
	if err := p.machine.StartLock(); err != nil {
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
func (p *RWProcess) TryLockFor(d time.Duration) (bool, error) {
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
// (LockCtx cancellations and TryLockFor expiries).
func (p *RWProcess) Aborts() uint64 { return p.driver.Aborts() }

// Unlock releases the critical section. It returns an error only on
// life-cycle misuse (unlocking a closed handle or one that does not hold
// the lock).
func (p *RWProcess) Unlock() error {
	if p.closed {
		return fmt.Errorf("anonmutex: Unlock on a closed handle")
	}
	if err := p.machine.StartUnlock(); err != nil {
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
// across leases: an idle Algorithm 1 process owns no registers, and the
// preserved sequence number keeps every future write stamp fresh, so a
// recycled handle is indistinguishable from one that simply changed
// goroutines. Using a handle after Close is a bug; the handle's methods
// fail until NewProcess hands it out again.
func (p *RWProcess) Close() error {
	if p.closed {
		return fmt.Errorf("anonmutex: Close on a closed handle")
	}
	if p.machine.Status() != core.StatusIdle {
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
func (p *RWProcess) LockSteps() int { return p.machine.LockSteps() }

// OwnedAtEntry reports how many registers held this process's identity
// when it last entered the critical section — always M() for Algorithm 1,
// the paper's RW-model entry cost.
func (p *RWProcess) OwnedAtEntry() int { return p.machine.OwnedAtEntry() }

// SnapshotStats reports how many snapshot operations this process has
// performed and the total number of double-scan collect passes they
// needed (collects/calls − 1 is the retry rate caused by concurrent
// writers).
func (p *RWProcess) SnapshotStats() (calls, collects uint64) {
	return p.view.SnapshotStats()
}
