package lockmgr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// procHandle is what the manager calls on a leased *anonmutex.Process.
// It is an interface for one reason: TestPoolOneKeyStress hands the pool
// stub handles, so that its clients' loop is all pool code.
type procHandle interface {
	LockCtx(ctx context.Context) error
	TryLock() (bool, error)
	Unlock() error
	Close() error
}

// leasePool multiplexes an unbounded client population onto one lock's
// fixed n process handles. Handles are created lazily (a lock that only
// ever sees one client materializes one handle) and parked between
// leases on a mutex-guarded slice: the uncontended lease/release cycle
// is two short critical sections and no allocation. Only when all n
// handles are leased out do blocking callers touch a channel: they
// register as waiters and park on a signal that every release posts
// after parking its handle — a timed-out waiter simply stops receiving,
// so it leaves the queue without holding, leaking, or reordering any
// handle. The pool never discards a handle while the entry lives — the
// root package's Close/re-lease cycle is exercised when an evicted entry
// with more than one handle is dropped, as closeIdle returns every slot
// to the lock; an evicted entry with one keeps it parked for the name
// the entry is re-keyed to.
//
// A mutex rather than a lock-free ring on purpose: interleaved runs of
// the solo acquire/release benchmark could not separate the two, and a
// mutex has no window in which a preempted pop leaves the structure
// looking full (TestPoolOneKeyStress drives that schedule on one core).
// Double releases are caught by the entry's held 0→1→0 cross-check, not
// here.
//
// A pool is embedded in its entry and is ready once newHandle and
// capacity are set.
type leasePool struct {
	newHandle func() (procHandle, error)
	capacity  int

	mu sync.Mutex
	// idle holds the parked handles, most recently parked last. It grows
	// by append to the number of handles the name's clients ever had out
	// at once — one, for most names — and never shrinks, so the steady
	// cycle does not allocate.
	idle    []procHandle
	created int // materialized handles, parked or leased

	// waiters counts callers blocked for a handle; wake carries one
	// signal per release that observed a waiter. A waiter that consumes a
	// signal re-polls the parked set, so a stolen handle only costs a
	// spurious wakeup, never a lost one. The channel is made, under mu,
	// by the first caller that has to queue: a name that never has more
	// than n clients at once never has one.
	waiters atomic.Int64
	wake    chan struct{}
}

// tryLease checks out a handle without waiting: a parked one if
// available, a freshly materialized one while slots remain, and nil
// otherwise.
func (p *leasePool) tryLease() (procHandle, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		h := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return h, nil
	}
	create := p.created < p.capacity
	if create {
		p.created++ // claim the slot; fill it outside the mutex
	}
	p.mu.Unlock()
	if !create {
		return nil, nil
	}
	h, err := p.newHandle()
	if err != nil {
		p.mu.Lock()
		p.created--
		p.mu.Unlock()
		return nil, err
	}
	return h, nil
}

// lease checks out a handle: a parked one if available, a freshly
// materialized one while slots remain, and otherwise the next handle
// released by another client. waited reports whether the caller had to
// queue. A queued caller whose ctx ends gives up with ctx's error.
func (p *leasePool) lease(ctx context.Context) (h procHandle, waited bool, err error) {
	if h, err = p.tryLease(); h != nil || err != nil {
		return h, false, err
	}
	// All n handles exist and are leased out: queue. The re-poll after
	// registering closes the race with a release that loaded the waiter
	// count just before we registered.
	p.mu.Lock()
	if p.wake == nil {
		// One slot per handle: release never blocks on a full buffer,
		// and a full buffer already forces a re-poll per handle.
		p.wake = make(chan struct{}, p.capacity)
	}
	wake := p.wake
	p.mu.Unlock()
	p.waiters.Add(1)
	defer p.waiters.Add(-1)
	for {
		if h, err = p.tryLease(); h != nil || err != nil {
			return h, true, err
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
}

// release parks a handle for the next lease and wakes a queued waiter if
// any is registered. The signal is posted after the handle is parked, so
// the woken waiter's re-poll finds it (or finds it already taken by a
// fast-path lease, which is just as good: the handle is in use, and its
// own release will signal again). A release that parks before the first
// waiter made the channel has nobody to wake: that waiter's re-poll comes
// after its registration, and so after this park.
func (p *leasePool) release(h procHandle) {
	p.mu.Lock()
	p.idle = append(p.idle, h)
	wake := p.wake
	p.mu.Unlock()
	if wake != nil && p.waiters.Load() > 0 {
		select {
		case wake <- struct{}{}:
		default:
			// The buffer already carries one pending signal per possible
			// handle; further signals are redundant — every pending one
			// forces a re-poll that happens after this handle was parked.
		}
	}
}

// handles reports how many handles the pool has materialized.
func (p *leasePool) handles() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}

// closeIdle closes every materialized handle. Callable only when no
// handle is leased out (the manager guarantees this via entry refcounts);
// a missing handle means a caller violated that contract.
func (p *leasePool) closeIdle() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if leased := p.created - len(p.idle); leased != 0 {
		return fmt.Errorf("lockmgr: pool torn down with %d of %d handles still leased",
			leased, p.created)
	}
	for i, h := range p.idle {
		if err := h.Close(); err != nil {
			return fmt.Errorf("lockmgr: closing pooled handle: %w", err)
		}
		p.idle[i] = nil
	}
	p.idle = p.idle[:0]
	p.created = 0
	return nil
}
