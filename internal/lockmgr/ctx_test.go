package lockmgr

// AcquireLeaseCtx tests: deadline-bounded acquisition must give up cleanly at
// both stages — queued for a handle, and competing for the registers —
// without leaking handles or corrupting the manager.

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestAcquireCtxAbortsCompetition pins the withdraw stage: with the lock
// held, a second handle's bounded acquire must time out, step the Aborts
// counter, and leave the lock perfectly reusable.
func TestAcquireCtxAbortsCompetition(t *testing.T) {
	m, err := New(Config{HandlesPerLock: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AcquireLeaseCtx(context.Background(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	if _, err := m.AcquireLeaseCtx(ctx, "hot"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AcquireLeaseCtx on a held lock = %v, want DeadlineExceeded", err)
	}
	c := m.Counters()
	if c.Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", c.Aborts)
	}
	if c.LeaseTimeouts != 0 {
		t.Fatalf("LeaseTimeouts = %d, want 0 (a handle was free)", c.LeaseTimeouts)
	}
	if err := m.Release(g); err != nil {
		t.Fatal(err)
	}
	// The withdrawn competitor left no residue: an unbounded acquire must
	// complete immediately-ish.
	g2, err := m.AcquireLeaseCtx(context.Background(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(g2); err != nil {
		t.Fatal(err)
	}
	if v := m.Violations(); v != 0 {
		t.Fatalf("%d violations", v)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close after aborts: %v (leaked handle?)", err)
	}
}

// TestAcquireCtxLeaseTimeout pins the queue stage: with every handle
// leased out, a bounded acquire must leave the queue with
// DeadlineExceeded, step LeaseTimeouts, and leak nothing.
func TestAcquireCtxLeaseTimeout(t *testing.T) {
	m, err := New(Config{HandlesPerLock: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := m.AcquireLeaseCtx(context.Background(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	// Lease the second handle and keep it out of the pool by letting it
	// compete (and time out) slowly in the background... simpler: occupy
	// it with another bounded competitor that is still running when the
	// queued caller times out.
	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		m.AcquireLeaseCtx(ctx, "hot") // holds the second handle for ~100ms
	}()
	time.Sleep(10 * time.Millisecond) // let it lease the second handle
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := m.AcquireLeaseCtx(ctx, "hot"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued AcquireLeaseCtx = %v, want DeadlineExceeded", err)
	}
	c := m.Counters()
	if c.LeaseTimeouts != 1 {
		t.Fatalf("LeaseTimeouts = %d, want 1 (counters: %+v)", c.LeaseTimeouts, c)
	}
	<-occupied
	if err := m.Release(g1); err != nil {
		t.Fatal(err)
	}
	g, err := m.AcquireLeaseCtx(context.Background(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(g); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close after lease timeout: %v (leaked handle or pinned entry?)", err)
	}
}

// TestAcquireCtxUnboundedEquivalence: an acquire under a context that
// never ends counts as a plain acquire — no abort, no lease timeout.
func TestAcquireCtxUnboundedEquivalence(t *testing.T) {
	m, err := New(Config{HandlesPerLock: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.AcquireLeaseCtx(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Release(g); err != nil {
		t.Fatal(err)
	}
	c := m.Counters()
	if c.Acquires != 1 || c.Aborts != 0 || c.LeaseTimeouts != 0 {
		t.Fatalf("counters after unbounded acquire: %+v", c)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
