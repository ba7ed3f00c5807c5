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

// RMWLock is the paper's Algorithm 2: an n-process symmetric deadlock-free
// mutual exclusion lock over m anonymous read/modify/write registers
// (read, write, and compare&swap), for any m ∈ M(n) — including the
// degenerate single-register memory. Entering the critical section
// requires owning a strict majority of the registers, the RMW model's
// cheaper entry cost.
type RMWLock struct {
	n, m int
	cfg  config
	mem  *amem.Memory
	gen  id.Generator // zero value: sequential identities

	mu     sync.Mutex
	issued int
	free   []*RMWProcess // closed handles awaiting re-lease
}

// NewRMWLock creates an anonymous RMW-register lock for n ≥ 2 processes.
// Without WithRegisters the memory size is MinRegistersRMW(n) (the
// smallest non-degenerate member of M(n)); any explicit m ∈ M(n) is legal,
// including m = 1.
func NewRMWLock(n int, opts ...Option) (*RMWLock, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("anonmutex: RMWLock needs n >= 2 processes, got %d", n)
	}
	m := cfg.m
	if m == 0 {
		m = mset.MinRMWAbove(n)
	}
	if err := mset.ValidateRMW(n, m); err != nil {
		return nil, fmt.Errorf("anonmutex: %w", err)
	}
	return &RMWLock{n: n, m: m, cfg: cfg, mem: amem.New(m)}, nil
}

// N returns the configured number of processes.
func (l *RMWLock) N() int { return l.n }

// M returns the anonymous memory size.
func (l *RMWLock) M() int { return l.m }

// NewProcess allocates one of the lock's n process handles: a fresh slot
// while any remain, otherwise a handle recycled by Close. When all n
// slots are live it returns an error; Close a handle to free one.
func (l *RMWLock) NewProcess() (*RMWProcess, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k := len(l.free); k > 0 {
		p := l.free[k-1]
		l.free = l.free[:k-1]
		p.closed = false
		return p, nil
	}
	if l.issued >= l.n {
		return nil, fmt.Errorf("anonmutex: RMWLock configured for %d processes and none released", l.n)
	}
	i := l.issued
	me, err := l.gen.New()
	if err != nil {
		return nil, fmt.Errorf("anonmutex: issuing identity: %w", err)
	}
	machine, err := core.NewAlg2(me, l.n, l.m, core.Alg2Config{SoloFastPath: !l.cfg.noFastPath})
	if err != nil {
		return nil, fmt.Errorf("anonmutex: %w", err)
	}
	view, err := l.mem.NewView(me, l.cfg.adversary().Assign(i, l.m))
	if err != nil {
		return nil, fmt.Errorf("anonmutex: %w", err)
	}
	l.issued++
	return &RMWProcess{
		lock:    l,
		machine: machine,
		driver:  engine.NewDriver(machine, engine.Hardware(view)),
	}, nil
}

// RMWProcess is one process's handle on an RMWLock. Not safe for
// concurrent use.
type RMWProcess struct {
	lock    *RMWLock
	machine *core.Alg2Machine
	driver  *engine.Driver
	closed  bool
}

// Lock acquires the critical section. It returns an error only on
// life-cycle misuse.
func (p *RMWProcess) Lock() error {
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
// cleanly: a compare&swap erase sweep removes the process's identity from
// every register (bounded, wait-free), so the remaining competitors
// proceed as if this process had never entered the entry section.
// Cancellation is reported as ctx's error (test with errors.Is against
// context.Canceled or DeadlineExceeded); if the lock is acquired before
// the cancellation is observed, LockCtx returns nil and the caller holds
// the lock.
func (p *RMWProcess) LockCtx(ctx context.Context) error {
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
// most 2m+2 shared-memory operations — enough for any uncontended
// acquisition (m with the solo fast path, 2m without) — and, if the
// lock has not been entered by then, withdraws via the bounded erase
// sweep and reports false. The whole call executes a hard-bounded
// number of operations and never sleeps, unlike TryLockFor's
// wall-clock bound. Errors are reserved for life-cycle misuse.
func (p *RMWProcess) TryLock() (bool, error) {
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
func (p *RMWProcess) TryLockFor(d time.Duration) (bool, error) {
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
func (p *RMWProcess) Aborts() uint64 { return p.driver.Aborts() }

// Unlock releases the critical section. It returns an error only on
// life-cycle misuse.
func (p *RMWProcess) Unlock() error {
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
// NewProcess call can re-lease it. Only an idle handle (not holding the
// lock) can be closed; an idle Algorithm 2 process owns no registers, and
// the slot keeps its identity, permutation, and write-stamp sequence, so
// re-leasing is equivalent to the handle changing goroutines. Using a
// handle after Close is a bug; its methods fail until it is re-leased.
func (p *RMWProcess) Close() error {
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

// LockSteps reports the number of shared-memory operations performed by
// the most recent Lock call.
func (p *RMWProcess) LockSteps() int { return p.machine.LockSteps() }

// OwnedAtEntry reports how many registers held this process's identity
// when it last entered the critical section — always a strict majority of
// M(), and typically far less than all of it: the paper's RMW-model entry
// cost.
func (p *RMWProcess) OwnedAtEntry() int { return p.machine.OwnedAtEntry() }
