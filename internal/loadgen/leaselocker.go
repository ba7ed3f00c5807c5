package loadgen

// LeaseLocker is the in-process lease-aware backend: one client's
// session on a lease.Manager wrapping a lockmgr.Manager. Every grant
// carries a fencing token, an optional background ticker heartbeats
// the session's grants, and Crash implements the crash op by acquiring
// a key and orphaning the grant — never heartbeated, never released —
// so only the manager's TTL expiry frees it. It drives the lease
// machinery without a network in the way (anonload -mode inproc).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"anonmutex/internal/lease"
)

// LeaseLocker is one client session over a lease.Manager. Create with
// NewLeaseLocker; one per client goroutine (the mutex exists only for
// the heartbeat ticker, which shares the grant table).
type LeaseLocker struct {
	lm *lease.Manager

	mu     sync.Mutex
	grants map[string]uint64 // name -> fencing token
	hbStop chan struct{}
	hbDone chan struct{}
}

// NewLeaseLocker opens a session on lm. A positive heartbeat starts a
// background ticker renewing every grant the session holds at that
// interval — set it under half the manager's TTL; zero means the
// session never heartbeats (its grants expire one TTL after acquire,
// which is what a deliberately negligent holder looks like).
func NewLeaseLocker(lm *lease.Manager, heartbeat time.Duration) *LeaseLocker {
	l := &LeaseLocker{lm: lm, grants: make(map[string]uint64)}
	if heartbeat > 0 {
		l.hbStop = make(chan struct{})
		l.hbDone = make(chan struct{})
		go l.beat(heartbeat)
	}
	return l
}

// beat renews every held grant each interval, dropping grants already
// fenced (their leases expired; the session no longer holds them).
func (l *LeaseLocker) beat(every time.Duration) {
	defer close(l.hbDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.hbStop:
			return
		case <-t.C:
			l.mu.Lock()
			for name, tok := range l.grants {
				if _, err := l.lm.Heartbeat(name, tok); err != nil {
					delete(l.grants, name)
				}
			}
			l.mu.Unlock()
		}
	}
}

// Acquire blocks until this session holds name.
func (l *LeaseLocker) Acquire(name string) error {
	l.mu.Lock()
	_, held := l.grants[name]
	l.mu.Unlock()
	if held {
		return fmt.Errorf("loadgen: session already holds %q", name)
	}
	g, err := l.lm.AcquireCtx(context.Background(), name)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.grants[name] = g.Token
	l.mu.Unlock()
	return nil
}

// AcquireFor implements DeadlineLocker: an attempt that cannot complete
// within d withdraws cleanly and reports (false, nil).
func (l *LeaseLocker) AcquireFor(name string, d time.Duration) (bool, error) {
	l.mu.Lock()
	_, held := l.grants[name]
	l.mu.Unlock()
	if held {
		return false, fmt.Errorf("loadgen: session already holds %q", name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	g, err := l.lm.AcquireCtx(ctx, name)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return false, nil
		}
		return false, err
	}
	l.mu.Lock()
	l.grants[name] = g.Token
	l.mu.Unlock()
	return true, nil
}

// TryAcquire implements TryLocker: a lost race reports (false, nil).
func (l *LeaseLocker) TryAcquire(name string) (bool, error) {
	l.mu.Lock()
	_, held := l.grants[name]
	l.mu.Unlock()
	if held {
		return false, fmt.Errorf("loadgen: session already holds %q", name)
	}
	g, ok, err := l.lm.TryAcquire(name)
	if err != nil || !ok {
		return false, err
	}
	l.mu.Lock()
	l.grants[name] = g.Token
	l.mu.Unlock()
	return true, nil
}

// Release gives a held name back through the token arbitration. A
// fenced release means the lease expired while the client thought it
// was inside its critical section — surfaced as an error so the run
// flags the misconfiguration (heartbeat interval too close to TTL).
func (l *LeaseLocker) Release(name string) error {
	l.mu.Lock()
	tok, held := l.grants[name]
	delete(l.grants, name)
	l.mu.Unlock()
	if !held {
		return fmt.Errorf("loadgen: session does not hold %q", name)
	}
	return l.lm.Release(name, tok)
}

// Holds implements HoldsChecker against the lease manager's own view:
// held means the session's token is still the key's live token.
func (l *LeaseLocker) Holds(name string) (bool, error) {
	l.mu.Lock()
	tok, held := l.grants[name]
	l.mu.Unlock()
	if !held {
		return false, nil
	}
	_, live := l.lm.Remaining(name, tok)
	return live, nil
}

// Crash implements Crasher: acquire name and orphan the grant. The
// token is deliberately forgotten — nothing will ever heartbeat or
// release it, so the key stays stuck until the manager's TTL expiry
// revokes the orphan. Patience is bounded at two TTLs plus slack: a
// crash-heavy hot key drains at one expiry per TTL, and a crasher
// stuck behind that queue reports false (died waiting) rather than
// stalling its client.
func (l *LeaseLocker) Crash(name string) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*l.lm.TTL()+250*time.Millisecond)
	defer cancel()
	_, err := l.lm.AcquireCtx(ctx, name)
	if errors.Is(err, context.DeadlineExceeded) {
		return false, nil
	}
	return err == nil, err
}

// Close stops the heartbeat ticker and releases anything the session
// still holds (ignoring grants that expired first — the manager
// already reclaimed them).
func (l *LeaseLocker) Close() error {
	if l.hbStop != nil {
		close(l.hbStop)
		<-l.hbDone
		l.hbStop = nil
	}
	l.mu.Lock()
	grants := l.grants
	l.grants = make(map[string]uint64)
	l.mu.Unlock()
	for name, tok := range grants {
		if err := l.lm.Release(name, tok); err != nil && !errors.Is(err, lease.ErrFenced) {
			return err
		}
	}
	return nil
}
