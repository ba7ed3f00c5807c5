package lockmgr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anonmutex"
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
// leases on a mutex-guarded stack: the uncontended lease/release cycle
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
// A pool is embedded in its entry and is ready once src and capacity
// are set.
type leasePool struct {
	src handleSource

	mu sync.Mutex
	// top is the most recently parked handle, nil when none is parked;
	// below holds the others, most recently parked last. A name whose
	// clients never had more than one handle out at once — most names —
	// parks in top alone and never makes below; below grows by append to
	// the number the name's clients ever had out at once and never
	// shrinks, so the steady cycle does not allocate. It is a pointer so
	// that the entry stays in the 128 B size class.
	top   procHandle
	below *[]procHandle

	capacity, created int32 // slots (n), and materialized handles, parked or leased

	// waiters counts callers blocked for a handle; wake carries one
	// signal per release that observed a waiter. A waiter that consumes a
	// signal re-polls the parked set, so a stolen handle only costs a
	// spurious wakeup, never a lost one. The channel is made, under mu,
	// by the first caller that has to queue: a name that never has more
	// than n clients at once never has one.
	waiters atomic.Int32
	wake    chan struct{}
}

// handleSource materializes a lock's process handles: the lock itself
// (lockSource), or in the pool tests a stub.
type handleSource interface {
	newHandle() (procHandle, error)
}

// lockSource is an anonmutex.Lock seen as a handleSource: the pool holds
// the lock itself, not a closure over it.
type lockSource anonmutex.Lock

func (l *lockSource) newHandle() (procHandle, error) {
	h, err := (*anonmutex.Lock)(l).NewProcess()
	if err != nil {
		return nil, err
	}
	return h, nil
}

// park pushes h onto the parked stack. Called with mu held.
func (p *leasePool) park(h procHandle) {
	if p.top != nil {
		if p.below == nil {
			p.below = new([]procHandle)
		}
		*p.below = append(*p.below, p.top)
	}
	p.top = h
}

// unpark pops the most recently parked handle, or nil. Called with mu
// held.
func (p *leasePool) unpark() procHandle {
	h := p.top
	p.top = nil
	if p.below != nil {
		if n := len(*p.below); n > 0 {
			p.top = (*p.below)[n-1]
			(*p.below)[n-1] = nil
			*p.below = (*p.below)[:n-1]
		}
	}
	return h
}

// tryLease checks out a handle without waiting: a parked one if
// available, a freshly materialized one while slots remain, and nil
// otherwise.
func (p *leasePool) tryLease() (procHandle, error) {
	p.mu.Lock()
	if h := p.unpark(); h != nil {
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
	h, err := p.src.newHandle()
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
// released by another client. queued is when the caller began to
// queue, zero if it did not have to. A queued caller whose ctx ends
// gives up with ctx's error.
func (p *leasePool) lease(ctx context.Context) (h procHandle, queued time.Time, err error) {
	if h, err = p.tryLease(); h != nil || err != nil {
		return h, time.Time{}, err
	}
	queued = time.Now()
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
			return h, queued, err
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, queued, ctx.Err()
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
	p.park(h)
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
	return int(p.created)
}

// closeIdle closes every materialized handle. Callable only when no
// handle is leased out (the manager guarantees this via entry refcounts);
// a missing handle means a caller violated that contract.
func (p *leasePool) closeIdle() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	parked := int32(0)
	if p.top != nil {
		parked = 1
		if p.below != nil {
			parked += int32(len(*p.below))
		}
	}
	if leased := p.created - parked; leased != 0 {
		return fmt.Errorf("lockmgr: pool torn down with %d of %d handles still leased",
			leased, p.created)
	}
	for h := p.unpark(); h != nil; h = p.unpark() {
		if err := h.Close(); err != nil {
			return fmt.Errorf("lockmgr: closing pooled handle: %w", err)
		}
		p.created--
	}
	return nil
}
